"""Make the shared reference oracles importable as ``oracles.*``, and keep
the per-test ``timeout`` ceiling working without pytest-timeout.

``pyproject.toml`` sets ``timeout = 120`` so a deadlocked sweep-engine test
fails instead of wedging the run.  That key belongs to the optional
pytest-timeout plugin; when the plugin is missing, this file registers the
key itself and arms :func:`faulthandler.dump_traceback_later` around each
test, which dumps every thread's stack and exits the process on expiry.
"""

import faulthandler
import os
import sys
from pathlib import Path

import pytest

_TESTS = str(Path(__file__).resolve().parent)
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)

try:
    import pytest_timeout  # noqa: F401
except ImportError:
    pytest_timeout = None

if pytest_timeout is None:
    #: a private copy of stderr: the timed test's output capture must not
    #: swallow the stack dump
    _STDERR_FD = pytest.StashKey[int]()

    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test ceiling in seconds: dump all stacks and exit on expiry "
            "(faulthandler fallback when pytest-timeout is absent)",
            default="0",
        )

    def pytest_configure(config):
        config.stash[_STDERR_FD] = os.dup(sys.__stderr__.fileno())

    def pytest_unconfigure(config):
        os.close(config.stash[_STDERR_FD])

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        timeout = float(item.config.getini("timeout") or 0)
        if timeout > 0:
            faulthandler.dump_traceback_later(
                timeout, exit=True, file=item.config.stash[_STDERR_FD]
            )
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()
