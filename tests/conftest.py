"""Shared helpers: locations for tests that run the CLI in a subprocess,
and a time limit for regression inputs that once ran without end.

Plain helpers only: the repository root is found from this file's own
location, so the tests read the corpus, schema and expected-report
fixtures of the checkout they live in, whatever the working directory.
"""

import os
import signal
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"


def cli_env():
    """The current environment with the absolute ``src`` first on PYTHONPATH.

    Existing PYTHONPATH entries are kept after it, so the subprocess imports
    this checkout's ``jumploci`` whether or not the package is installed and
    whatever its working directory is.
    """
    env = dict(os.environ)
    paths = [str(SRC_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def within_seconds(seconds, fn, *args):
    """fn(*args), failing with TimeoutError if it runs longer than seconds.

    Guards regression tests of inputs that once ran without end, so such a
    test fails instead of hanging the suite.  Uses SIGALRM (POSIX only).
    """
    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
