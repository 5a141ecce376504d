"""The names the benchmark binds by, checked from the tier-1 suite.

bench/tracer.py wraps program functions by name and bench/cold_pass.py
probes result caches by name, so renaming one of them breaks the
benchmark.  This test imports both the way a benchmark pass does, in a
fresh interpreter, so such a rename fails here first.  The same start-up
is checked for what it loads.
"""

import os
import subprocess
import sys

from conftest import REPO_ROOT, cli_env

PROBE = """
import jumploci.cli
from jumploci import discovery, twisted
for fn in (discovery._discovery_cached, twisted.presentation_data,
           twisted._modular_evaluator_cached):
    fn.cache_info()
from tracer import Tracer
Tracer().install_jumploci()
"""


def test_tracer_and_cache_probes_bind():
    env = cli_env()
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "bench"),
                                         env["PYTHONPATH"]])
    res = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                         text=True, cwd=REPO_ROOT, env=env)
    assert res.returncode == 0, res.stderr


STARTUP = """
import sys
import jumploci.cli
from jumploci import discovery, twisted
loaded = set(sys.modules)
from tracer import TARGETS
print(sorted({"dataclasses", "inspect"} & loaded))
print(sorted({module for _, module, _, _ in TARGETS} - loaded))
"""


def test_startup_skips_dataclasses_and_loads_traced_modules():
    # Importing dataclasses (it loads inspect, ast, dis and tokenize) and
    # building records with it costs more than the rest of the package's
    # import; and the tracer patches only modules that a benchmark pass
    # has already imported, so none of them may load lazily.
    env = cli_env()
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "bench"),
                                         env["PYTHONPATH"]])
    res = subprocess.run([sys.executable, "-c", STARTUP], capture_output=True,
                         text=True, cwd=REPO_ROOT, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "[]"], res.stdout
