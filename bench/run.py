"""jumploci benchmark: cold CLI passes checked against independent oracles.

Usage (from the repository root):

    python3 bench/run.py --workload scan-sparse --seed 0 --seconds 30 --trace 0

A run builds the workload's inputs from the seed (see
``workloads``), then loops as one closed-loop client: each pass spawns a
fresh interpreter (``cold_pass.py``) that runs ``jumploci.cli.main`` once
with JUMPLOCI_WORKERS=1, and the next pass starts when it has exited.
Passes cycle over the inputs until another full cycle would overrun
``--seconds``.  Every report is checked against the report schema and the
workload's oracle; a pass fails if it exits nonzero or misses either.

Right before every spawn, and once after the last pass, the run times
a fixed reference computation (``reference``).  Each pass's times are
scaled by ``reference.NOMINAL_S`` over the mean of the reference times on
either side of it: they are seconds on a host running at the reference's
nominal speed, so that the host's slow episodes largely cancel.

``--trace 0`` prints the end-to-end metrics: wall_s, cpu_s and
peak_rss_mb are the mean over the inputs of each input's median pass
(see ``per_input_median``), and setup_s is the median spawn-to-imported
time over set-up probes and passes.  ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics of
``tracer.summarize`` the same way, plus trace.overhead_s; traced reports
must be byte-identical to untraced ones.  Times in seconds are scaled,
counts and ratios are not.

The second-to-last stdout line is the run record (interpreter, cores,
source revision, pinned environment, report digests); the last line is
the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import reference
import selftest
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ENV = {"JUMPLOCI_WORKERS": "1", "PYTHONHASHSEED": "0"}
SETUP_PROBES = 5
RUN_LIMIT_S = 150     # a run must end within 180 s, even if a pass hangs


class Pass:
    """One spawned interpreter and what it produced."""

    def __init__(self, label, cli_args, workdir, traced, index, timeout):
        self.label, self.traced = label, traced
        self.ref_s = reference.measure()   # host speed right before spawn
        self.scale = None                  # set once the next ref_s is known
        tag = f"p{index}"
        times_path = workdir / f"{tag}.times.json"
        spans_path = workdir / f"{tag}.spans.json"
        if cli_args:
            cli_args = cli_args + ["--out", f"{tag}.json"]
        cmd = [sys.executable, str(BENCH / "cold_pass.py"), str(SRC),
               times_path.name, spans_path.name if traced else "-"] + cli_args
        self.errors = []
        with open(workdir / f"{tag}.err", "w+", encoding="utf-8") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=workdir, env=dict(os.environ, **ENV),
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        if proc.returncode != 0:
            self.errors.append(f"exit {proc.returncode}: {stderr[-400:]}")
            return
        times = json.loads(times_path.read_text(encoding="utf-8"))
        self.setup_s = times["import"] - t_spawn
        self.wall_s = times["done"] - t_spawn
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = times["peak_rss_kib"] / 1024
        if not cli_args:
            return
        self.report = (workdir / f"{tag}.json").read_bytes()
        self.layers = (tracer.summarize(json.loads(spans_path.read_text(
            encoding="utf-8"))) if traced else None)

    @property
    def ok(self):
        return not self.errors


def check_report(pass_, workload, schema):
    try:
        report = json.loads(pass_.report)
    except ValueError as exc:
        pass_.errors.append(f"report is not JSON: {exc}")
        return
    pass_.errors += oracle.schema_errors(report, schema)
    if not pass_.errors:
        pass_.errors += workload.check(report["results"])


def per_input_median(passes, labels, value):
    """Mean over inputs of the median ``value`` among an input's passes.

    The inputs of one workload differ in cost, so each input's median is
    taken first and the run's value is their mean."""
    medians = []
    for label in labels:
        values = [value(p) for p in passes if p.label == label and p.ok]
        if values:
            medians.append(statistics.median(values))
    return statistics.fmean(medians)


def measure(workload, inputs, seconds, trace, workdir):
    schema = json.loads((ROOT / "schema" / "report.schema.json")
                        .read_text(encoding="utf-8"))
    start = time.monotonic()
    count = itertools.count()

    def spawn(label, cli_args, traced=False):
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
        return Pass(label, cli_args, workdir, traced, next(count), timeout)

    reference.measure()   # warm the reference before it is timed
    spawn("warmup", [])   # fill bytecode caches; users do not pay that each run
    probes = [spawn("probe", []) for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        cycle_start = time.monotonic()
        for label, cli_args in inputs:
            for traced in ((False, True) if trace else (False,)):
                p = spawn(label, cli_args, traced)
                if p.ok:
                    check_report(p, workload, schema)
                passes.append(p)
        now = time.monotonic()
        if now - start + (now - cycle_start) > seconds:
            break
    timed = probes + passes
    after = [p.ref_s for p in timed[1:]] + [reference.measure()]
    for p, ref_after in zip(timed, after):
        p.scale = reference.NOMINAL_S / statistics.fmean((p.ref_s, ref_after))
    # Every pass of one input must write the same bytes, traced or not.
    first = {}
    for p in passes:
        if p.ok and first.setdefault(p.label, p.report) != p.report:
            p.errors.append("report bytes differ from the input's first pass")
    return probes, passes


def metrics_of(probes, passes, labels, trace):
    untraced = [p for p in passes if not p.traced]
    if not trace:
        setups = [p.setup_s * p.scale for p in probes + untraced if p.ok]
        values = {
            "wall_s": (per_input_median(untraced, labels,
                                        lambda p: p.wall_s * p.scale), "s"),
            "cpu_s": (per_input_median(untraced, labels,
                                       lambda p: p.cpu_s * p.scale), "s"),
            "peak_rss_mb": (per_input_median(untraced, labels,
                                             lambda p: p.peak_rss_mb), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        traced = [p for p in passes if p.traced]

        def layer(p, name):
            value = p.layers[name]
            return value * p.scale if tracer.unit_of(name) == "s" else value

        values = {name: (per_input_median(traced, labels,
                                          lambda p, n=name: layer(p, n)),
                         tracer.unit_of(name))
                  for name in tracer.PER_LAYER}
        values["trace.overhead_s"] = (
            per_input_median(traced, labels, lambda p: p.wall_s * p.scale)
            - per_input_median(untraced, labels,
                               lambda p: p.wall_s * p.scale), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def run_record(args, inputs, probes, passes):
    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        git_sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "jumploci").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    reports = {}
    for p in passes:
        if p.ok:
            reports.setdefault(p.label, hashlib.sha256(p.report).hexdigest())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha, "source_sha256": digest.hexdigest(),
        "env": ENV,
        "inputs": [{"label": label, "argv": argv,
                    "report_sha256": reports.get(label)}
                   for label, argv in inputs],
        "passes": len(passes),
        "reference_s": [round(q, 4) for q in statistics.quantiles(
            [p.ref_s for p in probes + passes], n=4)],
        "unscaled": {
            "wall_s": per_input_median([p for p in passes if not p.traced],
                                       [label for label, _ in inputs],
                                       lambda p: p.wall_s),
            "setup_s": statistics.median(
                [p.setup_s for p in probes + passes
                 if p.ok and not p.traced]),
        },
        "errors": [f"{p.label}: {e}" for p in passes for e in p.errors][:10],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "jumploci" / "cli.py").is_file():
        print(f"run.py: no jumploci sources under {SRC}", file=sys.stderr)
        return 2
    selftest.run_all()

    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.make_inputs(workload, args.seed, ROOT, workdir)
        probes, passes = measure(workload, inputs, args.seconds, args.trace,
                                 workdir)
    finally:
        shutil.rmtree(workdir)
    if not any(p.ok for p in passes):
        print("run.py: every pass failed:", file=sys.stderr)
        for p in passes[:4]:
            print("  " + "; ".join(p.errors), file=sys.stderr)
        return 1
    labels = [label for label, _ in inputs]
    failed = sum(1 for p in passes if not p.ok)
    print(json.dumps({"record": run_record(args, inputs, probes, passes)}))
    print(json.dumps({
        "correct": failed == 0 and all(p.ok for p in probes),
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics_of(probes, passes, labels, args.trace),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
