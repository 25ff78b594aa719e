"""Campaign runner CLI: run, build-buffer, report, validate-dataset.

Datasets, results, and buffers are all line-delimited UTF-8 JSON. Per-lead
seeds derive from the master seed and the lead's canonical SMILES, so output
bytes are identical no matter how campaigns are scheduled across workers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import signal
import sys
from dataclasses import dataclass, replace
from typing import Callable

from . import evaluate as ev
from . import metrics as mx
from . import orchestrate as orc
from . import tools as tl
from .buffer import (
    SchemaError,
    TrajectoryBuffer,
    json_field,
    line_error,
    read_json_lines,
    read_records,
    verify_records,
    write_lines_atomic,
)
from .endpoint import json_endpoint, reap_all, signals_deferred, text_endpoint
from .molgraph import MolGraph, ParseError, canonical_form, parse_smiles
from .seeds import derive_seed

log = logging.getLogger("leadopt")


class EmptyDatasetError(ValueError):
    """Dataset produced zero usable entries."""


@dataclass(frozen=True)
class DatasetEntry:
    smiles: str
    property_id: str
    mol: MolGraph  # the parsed row, reused by every later step


# ---------------------------------------------------------------------------
# Configuration loading
# ---------------------------------------------------------------------------


# Builtin profile keys a tools config may set: the JSON types each takes
# (numbers finite, never a bool) and the conversion to its ToolProfile field.
_PROFILE_FIELDS = {
    "edit_kind": ((str,), str),
    "competence": ((int, float), float),
    "palette": ((list,), tuple),
    "p_fail": ((int, float), float),
    "fail_damping": ((int, float), float),
    "fail_floor": ((int, float), float),
    "aggressive_edits": ((int,), int),
}


def _endpoint_argv(entry: dict) -> list[str]:
    argv = entry["endpoint"]
    if not isinstance(argv, list) or not argv or not all(isinstance(a, str) for a in argv):
        raise ValueError(f"endpoint must be a non-empty argv list, got {argv!r}")
    return argv


def _tool_spec(entry: dict) -> tl.ToolSpec:
    tool_id = entry["tool_id"]
    description = entry.get("description", tool_id)
    templates = entry.get("prompt_templates")
    if templates is None:
        templates = tl.default_templates(entry.get("action_hint", "any edit style"))
    elif isinstance(templates, list):
        templates = tuple(templates)
    else:
        raise TypeError(f"prompt_templates must be a list, got {templates!r:.80}")
    for text in (tool_id, description, *templates):
        if not isinstance(text, str):
            raise TypeError(f"tool_id, description and templates must be strings, got {text!r:.80}")
    if entry.get("kind", "builtin") == "builtin":
        profile = json_field(entry, "profile", dict) if "profile" in entry else {}
        fields = {
            key: convert(json_field(profile, key, *types))
            for key, (types, convert) in _PROFILE_FIELDS.items()
            if key in profile
        }
        kind = tl.ToolProfile(**{"edit_kind": "swap", **fields})
    else:
        kind = tl.ExternalTool(transport=text_endpoint(_endpoint_argv(entry)))
    return tl.ToolSpec(
        tool_id=tool_id,
        description=description,
        prompt_templates=templates,
        kind=kind,
    )


def load_toolset(path: str | None) -> tuple[tl.ToolSpec, ...]:
    if path is None:
        return tl.builtin_toolset()
    with open(path, encoding="utf-8") as handle:
        try:
            specs = [_tool_spec(entry) for entry in json.load(handle)["tools"]]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise orc.ConfigError(f"{path}: malformed tools config ({exc!r})") from exc
    if not specs:
        raise orc.ConfigError("tools config lists no tools")
    tool_ids = [spec.tool_id for spec in specs]
    for tool_id in tool_ids:
        if tool_ids.count(tool_id) > 1:
            raise orc.ConfigError(f"{path}: duplicate tool_id {tool_id!r}")
    return tuple(specs)


def load_property_registry(path: str | None) -> dict[str, ev.PropertySpec]:
    registry = {pid: ev.builtin_property(pid) for pid in ev.BUILTIN_SURROGATES}
    if path is None:
        return registry
    with open(path, encoding="utf-8") as handle:
        try:
            for pid, entry in json.load(handle)["evaluators"].items():
                direction = entry.get("direction", ev.KNOWN_DIRECTIONS.get(pid, ev.MAXIMIZE))
                evaluator = ev.ExternalEvaluator(pid, json_endpoint(_endpoint_argv(entry)))
                registry[pid] = ev.PropertySpec(pid, direction, evaluator)
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise orc.ConfigError(f"{path}: malformed evaluators config ({exc!r})") from exc
    return registry


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------


def ingest(
    path: str, known_properties: set[str], restrict_property: str | None = None
) -> tuple[list[DatasetEntry], int]:
    """Load dataset rows; invalid rows are skipped with a diagnostic."""
    entries: list[DatasetEntry] = []
    skipped = 0
    for lineno, row in read_json_lines(path):
        try:
            if isinstance(row, ValueError):  # not UTF-8 or not JSON
                raise row
            smiles = row["smiles"]
            property_id = row["property"]
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("%s:%d: skipping malformed row (%s)", path, lineno, exc)
            skipped += 1
            continue
        if not isinstance(smiles, str) or not isinstance(property_id, str):
            log.warning(
                "%s:%d: skipping malformed row (smiles and property must be strings)",
                path, lineno,
            )
            skipped += 1
            continue
        if property_id not in known_properties:
            log.warning("%s:%d: unknown property %r", path, lineno, property_id)
            skipped += 1
            continue
        if restrict_property is not None and property_id != restrict_property:
            log.warning(
                "%s:%d: property %r does not match --property %r",
                path, lineno, property_id, restrict_property,
            )
            skipped += 1
            continue
        try:
            mol = parse_smiles(smiles)
        except ParseError as exc:
            log.warning("%s:%d: unparseable SMILES %r (%s)", path, lineno, smiles, exc)
            skipped += 1
            continue
        entries.append(DatasetEntry(smiles, property_id, mol))
    return entries, skipped


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


# Records per verification task of a retrieve run's pool: about 11 ms of
# parse and fingerprint work, so that a process that runs out of campaigns
# soon finds a chunk to take, and the chunks' replies cost the parent little.
VERIFY_CHUNK = 50


def _serve(pipe, sigmask: set[signal.Signals], parent_ends: list, serve: Callable) -> None:
    """Pool process loop: send back serve(task) for each task read from
    ``pipe``, until the parent sends None or goes away.

    Pool processes leave Ctrl-C to the parent, which terminates them. A
    no-op handler ignores SIGINT; unlike SIG_IGN, exec resets it, so
    endpoint processes started here still stop on Ctrl-C. The SIGTERM of
    the parent's terminate() raises SystemExit through the handler that
    main installs and fork hands down, so that the process kills and reaps
    its endpoint processes on every way out; the clean-up itself ignores a
    SIGTERM.
    """
    for end in parent_ends:  # inherited; closed so that EOF tells of the parent's exit
        end.close()
    signal.signal(signal.SIGINT, lambda signum, frame: None)
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, sigmask)
        with contextlib.suppress(EOFError, BrokenPipeError):
            for task in iter(pipe.recv, None):
                pipe.send(serve(task))
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        reap_all()


def _exit_on_signal(signum: int, frame) -> None:
    """Exit with 128 + signum through every finally; a repeat is ignored."""
    signal.signal(signum, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def _run_in_workers(
    context, workers: int, run_one: Callable, entries: list[DatasetEntry], verify: tuple[str, list] | None
) -> list:
    """run_one over the indices of ``entries``, in order, on ``workers``
    forked processes. Fork hands each process run_one and all it refers
    to, endpoint transports and a loaded buffer included, without pickling.

    Each process has its own pipe and takes one task at a time, so the
    load balances and no lock is shared: terminating a process at any
    point cannot block the others or the parent. Ctrl-C waits while the
    processes start, so every started one is terminated and reaped on the
    way out. A process that dies fails the run instead of leaving it
    waiting.

    ``verify``, a buffer path and its records, splits the records into
    chunks of VERIFY_CHUNK, each a task that runs buffer.verify_records on
    its slice, and starts one more process of the pool, first. That
    verifier takes only chunks and runs no campaign; each worker takes
    campaigns while any remain, then chunks. The verdict is the first
    failing line of the lowest-numbered failing chunk, raised as a
    SchemaError, as TrajectoryBuffer.load raises it, once every chunk
    before that one has replied; it terminates the pool. Nothing is
    returned before every chunk has replied.
    """
    from multiprocessing.connection import wait

    path, records = verify or (None, [])
    outcomes: list = [None] * len(entries)
    campaigns = iter(range(len(entries)))
    chunks = (slice(start, start + VERIFY_CHUNK) for start in range(0, len(records), VERIFY_CHUNK))
    verdicts = {}  # first record of each chunk that has replied -> its failure, or None
    verified = 0  # the records before this one are in chunks that replied None
    processes = {}  # parent end of each pipe -> its process
    in_flight = {}  # parent end -> the task its process runs: a campaign index or a chunk's slice

    def serve(task):
        return verify_records(records[task]) if isinstance(task, slice) else run_one(task)

    def feed(pipe) -> None:
        task = None if pipe is verifier else next(campaigns, None)
        if task is None:
            task = next(chunks, None)
        pipe.send(task)
        if task is not None:
            in_flight[pipe] = task

    try:
        with signals_deferred() as sigmask:
            for _ in range(workers + (verify is not None)):
                pipe, child_end = context.Pipe()
                process = context.Process(target=_serve, args=(child_end, sigmask, [*processes, pipe], serve))
                process.start()
                child_end.close()
                processes[pipe] = process
        verifier = next(iter(processes)) if verify is not None else None
        for pipe in processes:
            feed(pipe)
        while in_flight:
            for pipe in wait(list(in_flight)):
                task = in_flight.pop(pipe)
                try:
                    reply = pipe.recv()
                except EOFError:
                    process = processes[pipe]
                    process.join()
                    running = (
                        f"the verifier of {path}" if isinstance(task, slice)
                        else f"the worker running {entries[task].smiles}"
                    )
                    raise ChildProcessError(f"{running} exited with code {process.exitcode}") from None
                if isinstance(task, slice):
                    verdicts[task.start] = reply
                    while verified in verdicts:
                        if verdicts[verified] is not None:
                            raise line_error(path, verdicts[verified])
                        verified += VERIFY_CHUNK
                else:
                    outcomes[task] = reply
                feed(pipe)
        return outcomes
    except BaseException:
        for process in processes.values():
            process.terminate()
        raise
    finally:
        # A process whose SystemExit from terminate() was lost (raised in a
        # finalizer, which Python reports and drops) ignores SIGTERM from
        # then on; the closed pipe ends its wait for a task.
        for pipe, process in processes.items():
            pipe.close()
            process.join()


def _run_campaigns(
    args: argparse.Namespace,
    finish: Callable[[orc.CampaignResult], object],
) -> tuple[list[tuple[DatasetEntry, object, str | None]], int]:
    """Load the configs, the buffer and the dataset, then run one campaign
    per entry.

    With --jobs above 1 campaigns run in that many worker processes
    started by fork, at most one per entry (_run_in_workers); finish(result)
    post-processes each one in its worker. A lead whose campaign raises
    yields its error message instead, so one lead cannot sink the run.

    In retrieve mode the buffer's records are read here and the campaigns
    run on their stored fingerprints, while the pool checks every stored
    lead in chunks: one more process, at any --jobs, takes only chunks,
    and each worker takes chunks once no campaign is left to start. So at
    --jobs 1 the campaigns run in one forked worker. No output is written
    from an unverified buffer, though campaigns may have run by the
    verdict. A malformed line, or a platform without fork, verifies
    in-line before any campaign; a buffer with no line needs no verifier.

    Returns the (entry, outcome, error) triples in dataset order and the
    skipped-row count.
    """
    if args.jobs < 1:
        raise orc.ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    context = None
    if args.jobs > 1 or args.mode == orc.RETRIEVE:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError as exc:
            if args.jobs > 1:
                raise orc.ConfigError(f"--jobs {args.jobs} needs the fork start method ({exc})") from exc
    tool_set = load_toolset(args.tools_config)
    registry = load_property_registry(args.evaluators_config)
    buffer = verify = None
    if args.mode == orc.RETRIEVE:
        if args.buffer is None:
            raise orc.ConfigError("retrieve mode requires --buffer")
        records, failure = read_records(args.buffer)
        if records and failure is None and context is not None:
            verify = args.buffer, records
        else:
            # A line read before the malformed one may fail verification.
            failure = verify_records(records) or failure
            if failure is not None:
                raise line_error(args.buffer, failure)
        buffer = TrajectoryBuffer()
        for _, record in records:
            buffer.insert(record)
    entries, skipped = ingest(args.dataset, set(registry), args.property_id)
    if not entries:
        raise EmptyDatasetError(f"{args.dataset}: no usable rows ({skipped} skipped)")
    # Built here so that a bad option fails the run before any campaign;
    # each lead's seed is set in run_one.
    configs = [
        orc.RunConfig(
            mode=args.mode,
            tool_set=tool_set,
            property_spec=registry[entry.property_id],
            steps=args.steps,
            tau=args.tau,
            buffer=buffer,
            run_id=f"{args.mode}-s{args.seed}-{index}",
        )
        for index, entry in enumerate(entries)
    ]

    def run_one(index: int) -> tuple[object, str | None]:
        """(finish(result), None), or (None, message) when the campaign
        raises, so that no exception object crosses a process boundary.

        The seed comes from the lead's canonical form, derived here so that
        a slow lead holds only the worker that runs it."""
        entry = entries[index]
        try:
            seed = derive_seed(args.seed, canonical_form(entry.mol))
            config = replace(configs[index], seed=seed)
            return finish(orc.run_campaign(config, entry.mol)), None
        except Exception as exc:  # per-lead failure must not sink the run
            return None, str(exc)

    workers = min(args.jobs, len(entries))
    if workers > 1 or verify is not None:
        outcomes = _run_in_workers(context, workers, run_one, entries, verify)
    else:
        outcomes = [run_one(index) for index in range(len(entries))]
    for entry, (_, error) in zip(entries, outcomes):
        if error is not None:
            log.error("campaign failed for %s: %s", entry.smiles, error)
    return [(entry, *outcome) for entry, outcome in zip(entries, outcomes)], skipped


def run_command(args: argparse.Namespace) -> int:
    outcomes, skipped = _run_campaigns(args, orc.result_to_line)
    lines = [
        json.dumps(
            {"lead": entry.smiles, "property_id": entry.property_id, "error": error},
            sort_keys=True,
        )
        if error is not None
        else line
        for entry, line, error in outcomes
    ]
    write_lines_atomic(args.out, lines)
    log.info("wrote %d campaign records to %s (%d rows skipped)", len(lines), args.out, skipped)
    return 0


def build_buffer_command(args: argparse.Namespace) -> int:
    """Run parallel-mode campaigns over training leads and store the winners."""
    outcomes, _ = _run_campaigns(args, orc.trajectory_from_campaign)
    buffer = TrajectoryBuffer()
    for _, record, _ in outcomes:
        # None for a campaign without a storable success or a failed one.
        if record is not None:
            buffer.insert(record)
    buffer.flush(args.out)
    log.info("stored %d/%d successful trajectories in %s", len(buffer), len(outcomes), args.out)
    return 0


def report_command(args: argparse.Namespace) -> int:
    outcomes = []
    errors = 0
    for lineno, record in read_json_lines(args.results):
        if isinstance(record, ValueError):  # not UTF-8 or not JSON
            raise SchemaError(f"{args.results}:{lineno}: {record}") from record
        if isinstance(record, dict) and "error" in record:
            errors += 1
            continue
        if not isinstance(record, dict) or "steps" not in record:
            raise SchemaError(f"{args.results}:{lineno}: not a campaign record")
        try:
            outcomes.append(mx.outcome_from_record(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(
                f"{args.results}:{lineno}: malformed campaign record ({exc!r})"
            ) from exc
    if not outcomes:
        raise EmptyDatasetError(f"{args.results}: no campaign records")
    report = mx.compile_report(outcomes)
    print(mx.render_table(report, args.label))
    if errors:
        print(f"failed_campaigns={errors}")
    if args.csv is not None:
        write_lines_atomic(args.csv, mx.per_step_csv(report).splitlines())
        log.info("wrote per-step series to %s", args.csv)
    return 0


def validate_dataset_command(args: argparse.Namespace) -> int:
    registry = load_property_registry(args.evaluators_config)
    entries, skipped = ingest(args.dataset, set(registry))
    print(f"entries={len(entries)} skipped={skipped}")
    if not entries:
        raise EmptyDatasetError(f"{args.dataset}: no usable rows")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--steps", type=int, default=3, help="exploration steps per lead")
    parser.add_argument("--tau", type=float, default=0.5, help="similarity threshold vs the lead")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--property", dest="property_id", default=None,
                        help="restrict the run to one property id")
    parser.add_argument("--dataset", required=True, help="line-delimited JSON dataset")
    parser.add_argument("--buffer", default=None, help="trajectory buffer file (retrieve mode)")
    parser.add_argument("--tools-config", default=None, help="JSON tool-set configuration")
    parser.add_argument("--evaluators-config", default=None, help="JSON evaluator endpoints")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent campaigns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadopt",
        description="Budget-aware multi-tool campaigns for constrained lead optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run campaigns over a dataset")
    run_p.add_argument(
        "--mode", choices=orc.MODES, default=orc.ONLINE, help="execution budget policy"
    )
    _add_campaign_args(run_p)
    run_p.set_defaults(handler=run_command)

    buf_p = sub.add_parser("build-buffer", help="record winning trajectories from training leads")
    _add_campaign_args(buf_p)
    buf_p.set_defaults(handler=build_buffer_command, mode=orc.PARALLEL)

    rep_p = sub.add_parser("report", help="aggregate metrics from a results file")
    rep_p.add_argument("--results", required=True, help="results file from `run`")
    rep_p.add_argument("--csv", default=None, help="write per-step series here")
    rep_p.add_argument("--label", default="campaign", help="row label for the table")
    rep_p.set_defaults(handler=report_command)

    val_p = sub.add_parser("validate-dataset", help="check a dataset file")
    val_p.add_argument("--dataset", required=True)
    val_p.add_argument("--evaluators-config", default=None)
    val_p.set_defaults(handler=validate_dataset_command)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    # SIGTERM exits with status 143 through the clean-up below; forked pool
    # processes inherit the handler. The caller's handler is restored on return.
    caller_handler = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        return args.handler(args)
    except (orc.ConfigError, EmptyDatasetError, SchemaError, OSError) as exc:
        log.error("%s", exc)
        return 2
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        reap_all()
        signal.signal(signal.SIGTERM, caller_handler)


if __name__ == "__main__":
    sys.exit(main())
