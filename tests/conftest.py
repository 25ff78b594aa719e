"""Test-wide hypothesis settings and a time bound per test.

Property tests draw the same examples on every run (``derandomize``), so a
failure reproduces and a pass means the same thing each time. Wall time on
a shared machine varies too much for a per-example deadline. There is no
example database; hypothesis still writes its cache of source constants
under ``.hypothesis/constants/``, which ``.gitignore`` lists.

A test that runs past TEST_TIMEOUT_S seconds ends the whole session with
status 1, after printing its node id and every thread's stack. The bound
uses ``signal.alarm`` and starts no thread, because forking with a second
thread alive is deprecated from Python 3.12 and the fork tests run with
deprecation warnings as errors.
"""

import contextlib
import faulthandler
import os
import signal
import sys

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

# The slowest test call takes about 9 s on a 2-vCPU VM; slow runners get room.
TEST_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def _time_bound(request):
    if not hasattr(signal, "alarm"):
        yield
        return
    capture = request.config.pluginmanager.getplugin("capturemanager")

    def expire(signum, frame):
        # pytest's capture would swallow what is written before os._exit.
        with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
            print(f"\n{request.node.nodeid} ran past {TEST_TIMEOUT_S} s", file=sys.stderr, flush=True)
            faulthandler.dump_traceback(all_threads=True)
        os._exit(1)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
