"""The names the benchmark binds by, checked from the tier-1 suite.

bench/tracer.py wraps program functions by name and bench/cold_pass.py
probes result caches by name, so renaming one of them breaks the
benchmark.  These tests import both the way a benchmark pass does, in a
fresh interpreter, so such a rename fails here first.  The same start-up
is checked for what it loads, and the tracer's point count for what it
counts.
"""

import os
import subprocess
import sys

from conftest import REPO_ROOT, cli_env


def _run_in_bench_pass(source):
    """Run source in a fresh interpreter with bench/ and this checkout's
    src on the path, as a benchmark pass imports them."""
    env = cli_env()
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "bench"),
                                         env["PYTHONPATH"]])
    return subprocess.run([sys.executable, "-c", source], capture_output=True,
                          text=True, cwd=REPO_ROOT, env=env)


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
    res = _run_in_bench_pass(PROBE)
    assert res.returncode == 0, res.stderr


POINTS = """
import jumploci.cli
from jumploci import corpus, discovery
from tracer import Tracer
tracer = Tracer()
tracer.install_jumploci()
rep = discovery.discover_components(corpus.get("swap_torus"), 1, 1, 4)
checked = tracer.counts["subtorus.points_checked"]
for c in rep.components:
    c.subtorus.torsion_points(4)
print(checked, tracer.counts["subtorus.points_checked"])
"""


def test_tracer_counts_growth_points_not_listings():
    # The tracer counts the points coset growth draws lazily, and listing
    # a coset draws through the same generator without adding to them.
    # swap_torus at K = 4 grows its circle; surface3's classes are whole
    # tori, which discovery takes without growth.
    res = _run_in_bench_pass(POINTS)
    assert res.returncode == 0, res.stderr
    checked, after = map(int, res.stdout.split())
    assert checked > 0 and after == checked, res.stdout


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
    res = _run_in_bench_pass(STARTUP)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "[]"], res.stdout
