"""Spans around calls into leadopt's public functions, installed from outside.

``Tracer.installed()`` wraps each function in ``TRACED_FUNCTIONS`` and
rebinds the wrapper in every ``leadopt`` module that holds the original
(``from .molgraph import validate`` copies the binding into each importer).
Methods are wrapped on their class, and the ``cli`` endpoint factories are
wrapped so that each transport they return is timed. Leaving the context
restores every binding.

A span records its name, start, end, parent, thread and the ``run_id`` of
the campaign it belongs to. Open spans sit on a per-thread stack, so spans
from concurrent campaigns nest correctly; closed spans stay in memory until
``write`` dumps them. A span's self time is its duration minus that of its
children, which always run on the same thread.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time

# (defining module, function, span name). The span name's first dotted part
# is the layer the function belongs to.
TRACED_FUNCTIONS = (
    ("leadopt.molgraph", "validate", "molgraph.validate"),
    ("leadopt.molgraph", "parse_smiles", "molgraph.parse_smiles"),
    ("leadopt.molgraph", "write_smiles", "molgraph.write_smiles"),
    ("leadopt.molgraph", "canonical_form", "molgraph.canonical_form"),
    ("leadopt.fingerprint", "morgan_fp", "fingerprint.morgan_fp"),
    ("leadopt.fingerprint", "tanimoto", "fingerprint.tanimoto"),
    ("leadopt.evaluate", "evaluate", "evaluate.evaluate"),
    ("leadopt.tools", "invoke", "tools.invoke"),
    ("leadopt.orchestrate", "run_campaign", "orchestrate.run_campaign"),
    ("leadopt.orchestrate", "run_step", "orchestrate.run_step"),
    ("leadopt.metrics", "compile_report", "metrics.compile_report"),
    ("leadopt.cli", "ingest", "cli.ingest"),
)

ENDPOINT_FACTORIES = (
    ("text_endpoint", "cli.text_endpoint"),
    ("json_endpoint", "cli.json_endpoint"),
)


class Span:
    __slots__ = ("id", "name", "parent", "run_id", "thread", "start", "end", "child_ns", "note", "error")

    def __init__(self, span_id, name, parent, run_id, thread, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run_id = run_id
        self.thread = thread
        self.start = start
        self.end = start
        self.child_ns = 0
        self.note = None
        self.error = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "run_id": self.run_id,
            "thread": self.thread,
            "start_ns": self.start,
            "end_ns": self.end,
            "note": self.note,
            "error": self.error,
        }


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list[list[Span]] = []
        self._ids = itertools.count()

    def _state(self) -> tuple[list[Span], list[Span]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lock:
                self._thread_spans.append(local.spans)
        return local.stack, local.spans

    def spans(self) -> list[Span]:
        """Every closed span, ordered by start time."""
        with self._lock:
            merged = [span for spans in self._thread_spans for span in spans]
        return sorted(merged, key=lambda span: (span.start, span.id))

    def wrap(self, name, fn, run_id_of=None, note_of=None):
        """``fn`` recording one span per call.

        ``run_id_of(args)`` names the campaign a span starts (children
        inherit it); ``note_of(args, result)`` stores a detail on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = self._state()
            parent = stack[-1] if stack else None
            if run_id_of is not None:
                run_id = run_id_of(args)
            else:
                run_id = parent.run_id if parent is not None else ""
            span = Span(
                next(self._ids),
                name,
                None if parent is None else parent.id,
                run_id,
                threading.get_ident(),
                time.perf_counter_ns(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    span.note = note_of(args, result)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.duration_ns
                spans.append(span)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap leadopt's public functions for the duration of the block."""
        import leadopt.buffer
        import leadopt.cli
        import leadopt.evaluate

        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "leadopt" or name.startswith("leadopt."))
        ]
        undo: list[tuple[object, str, object]] = []

        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, replacement)

        def on_class(cls, attr, replacement):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, replacement)

        run_id_of = {"orchestrate.run_campaign": lambda args: args[0].run_id}
        note_of = {"tools.invoke": lambda args, result: args[0].tool_id}
        for module_name, attr, span_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            rebind(
                original,
                self.wrap(span_name, original, run_id_of.get(span_name), note_of.get(span_name)),
            )

        buffer_cls = leadopt.buffer.TrajectoryBuffer
        load = buffer_cls.__dict__["load"].__func__
        on_class(
            buffer_cls,
            "load",
            classmethod(self.wrap("buffer.load", load, note_of=lambda args, result: len(result))),
        )
        on_class(
            buffer_cls,
            "top1_similar",
            self.wrap(
                "buffer.top1_similar",
                buffer_cls.top1_similar,
                note_of=lambda args, result: None if result is None else result[1],
            ),
        )
        on_class(buffer_cls, "flush", self.wrap("buffer.flush", buffer_cls.flush))
        evaluator_cls = leadopt.evaluate.ExternalEvaluator
        on_class(evaluator_cls, "__call__", self.wrap("evaluate.external", evaluator_cls.__call__))

        for attr, span_name in ENDPOINT_FACTORIES:
            factory = getattr(leadopt.cli, attr)
            rebind(factory, self._timed_factory(factory, span_name))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def _timed_factory(self, factory, span_name):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(span_name, factory(*args, **kwargs))

        return make

    def write(self, path: str) -> None:
        """All spans as JSON lines, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
