"""The endpoint transport: one process per request, over three pipes.

Registry: every endpoint process this process starts is in ``_started``
until it is reaped, and the one started ahead for each argv waits in
``_waiting``. reap_all() kills and reaps them all; the CLI's main and each
of its pool processes call it on their way out, and atexit at exit.

Fork: a hook run in a forked child closes its copies of the parent's pipes
and empties its registry, so the child never uses, kills or waits for a
process that its parent started. It is registered only where
os.register_at_fork exists, so importing this module needs no POSIX-only
name.
"""

from __future__ import annotations

import atexit
import contextlib
import io
import json
import os
import select
import selectors
import shlex
import signal
import subprocess
import time

# Seconds one endpoint request may take, counted from when it is sent.
ENDPOINT_TIMEOUT_S = 60.0
# Bytes of stdout past which an endpoint's reply fails its request.
ENDPOINT_REPLY_LIMIT = 1 << 20
# Bytes of a failed endpoint's stderr kept, from its end, for the message.
_STDERR_TAIL = 4096


class _EndpointProcess:
    """One started endpoint process and this process's ends of its pipes."""

    def __init__(self, argv: list[str], pid: int, stdin: int, stdout: int, stderr: int) -> None:
        self.argv = argv
        self.pid = pid
        self.stdin, self.stdout, self.stderr = stdin, stdout, stderr
        self.open_fds = {stdin, stdout, stderr}
        self.exitcode: int | None = None  # set once waited for

    def close(self, fd: int) -> None:
        self.open_fds.discard(fd)
        os.close(fd)

    def close_pipes(self) -> None:
        while self.open_fds:
            self.close(next(iter(self.open_fds)))

    def reap(self) -> None:
        """SIGKILL the process unless it was waited for, wait for it, close
        the pipes and drop it from the registry."""
        if self.exitcode is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(self.pid, 0)
        self.close_pipes()
        _started.discard(self)

    def exchange(self, request: bytes, timeout: float) -> tuple[int, bytes, bytes]:
        """Write ``request`` to stdin and close it, read stdout and stderr to
        their ends, and wait for the exit, all within ``timeout`` seconds.

        Returns the exit code, stdout and the last _STDERR_TAIL bytes of
        stderr. Raises TimeoutExpired, or RuntimeError for a reply longer
        than ENDPOINT_REPLY_LIMIT; the caller reaps the process either way.
        """
        deadline = time.monotonic() + timeout
        pending = memoryview(request)
        reply, errors = bytearray(), bytearray()
        with selectors.DefaultSelector() as selector:
            selector.register(self.stdin, selectors.EVENT_WRITE)
            selector.register(self.stdout, selectors.EVENT_READ, reply)
            selector.register(self.stderr, selectors.EVENT_READ, errors)
            while selector.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise subprocess.TimeoutExpired(self.argv, timeout)
                for key, _ in selector.select(remaining):
                    if key.fd == self.stdin:
                        try:  # a writable pipe takes PIPE_BUF bytes without blocking
                            pending = pending[os.write(key.fd, pending[: select.PIPE_BUF]) :]
                        except BrokenPipeError:  # the endpoint stopped reading; its exit tells why
                            pending = pending[:0]
                        if not pending:
                            selector.unregister(key.fd)
                            self.close(key.fd)
                        continue
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        selector.unregister(key.fd)
                        self.close(key.fd)
                    key.data.extend(chunk)
                    del errors[:-_STDERR_TAIL]
                    if len(reply) > ENDPOINT_REPLY_LIMIT:
                        raise RuntimeError(
                            f"endpoint {shlex.join(self.argv)} replied more than {ENDPOINT_REPLY_LIMIT} bytes"
                        )
        delay = 0.0005  # the exit follows the pipes' close; poll for it as Popen.wait does
        while True:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.exitcode = os.waitstatus_to_exitcode(status)
                return self.exitcode, bytes(reply), bytes(errors)
            if time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(self.argv, timeout)
            time.sleep(delay)
            delay = min(2 * delay, 0.05)


_started: set[_EndpointProcess] = set()
_waiting: dict[tuple[str, ...], _EndpointProcess] = {}


def _spawn(argv: list[str]) -> _EndpointProcess:
    """Start an endpoint process on three new pipes and record it.

    SIGINT and SIGTERM wait until it is recorded, so that whatever they
    raise finds it; the process starts with the caller's signal mask.
    """
    fds: list[int] = []
    try:
        for _ in range(3):
            fds.extend(os.pipe())
        in_r, in_w, out_r, out_w, err_r, err_w = fds
        actions = [(os.POSIX_SPAWN_DUP2, fd, target) for target, fd in enumerate((in_r, out_w, err_w))]
        with signals_deferred() as sigmask:
            # Python ignores SIGPIPE and SIGXFSZ, and exec would keep them
            # ignored; Popen's restore_signals resets them too.
            pid = os.posix_spawnp(
                argv[0], argv, os.environ, file_actions=actions,
                setsigmask=sigmask, setsigdef=(signal.SIGPIPE, signal.SIGXFSZ),
            )
            proc = _EndpointProcess(argv, pid, in_w, out_r, err_r)
            _started.add(proc)
            fds = [in_r, out_w, err_w]  # the child's ends: this process closes its copies
        return proc
    finally:
        for fd in fds:
            os.close(fd)


def reap_all() -> None:
    """SIGKILL and reap every endpoint process this process started and has not reaped."""
    _waiting.clear()
    while _started:
        next(iter(_started)).reap()


def _forget_the_parents_processes() -> None:
    """In a forked child: close the copies of the parent's pipes and empty the registry."""
    for proc in _started:
        proc.close_pipes()
    _started.clear()
    _waiting.clear()


atexit.register(reap_all)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_the_parents_processes)


@contextlib.contextmanager
def signals_deferred():
    """Block SIGINT and SIGTERM in the body and yield the mask to restore.
    One that arrives meanwhile acts on leaving the body, so a process
    started in it is always known to the code that reaps it."""
    sigmask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    try:
        yield sigmask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, sigmask)


def _text(data: bytes, errors: str = "strict") -> str:
    """``data`` decoded as Popen(text=True) decodes a pipe: in the locale's
    encoding, with universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), errors=errors).read()


def text_endpoint(argv: list[str]):
    """One request per process: JSON on stdin, raw text reply on stdout.

    Each call takes the process waiting for this argv in this process, or
    starts one, and at once starts the next, which waits on stdin for the
    next call's request: its start-up overlaps the work in between. A
    waiting process that cannot start fails no call; the next call starts
    its own. The request fails (RuntimeError or TimeoutExpired) when the
    process exits non-zero, when it replies more than ENDPOINT_REPLY_LIMIT
    bytes, or when ENDPOINT_TIMEOUT_S seconds pass from the request before
    it exits; a failed process is killed and reaped. Waiting processes are
    killed with SIGKILL, never sent end of file, by reap_all.
    """
    argv = list(argv)
    key = tuple(argv)

    def call(request: dict) -> str:
        proc = _waiting.pop(key, None) or _spawn(argv)
        with contextlib.suppress(OSError):
            _waiting[key] = _spawn(argv)
        try:
            code, reply, errors = proc.exchange(json.dumps(request, sort_keys=True).encode(), ENDPOINT_TIMEOUT_S)
        finally:
            proc.reap()
        if code != 0:
            raise RuntimeError(f"endpoint {shlex.join(argv)} exited {code}: {_text(errors, 'replace').strip()}")
        return _text(reply)

    return call


def json_endpoint(argv: list[str]):
    """Like text_endpoint but the reply must be a single JSON document."""
    raw = text_endpoint(argv)

    def call(request: dict) -> dict:
        return json.loads(raw(request))

    return call
