"""Self-tests of the benchmark's own arithmetic; run before every run.

    python3 bench/selftest.py

Checks the oracle counts against values worked out by hand, the schema
checker, the tracer's busy and self times on a synthetic nested call
with a scripted clock, identity patching across module aliases, and
that BENCHMARK.json names exactly the metrics and workloads this
directory produces.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import oracle
import tracer
import workloads

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class SelfTestError(AssertionError):
    pass


def _expect(label, got, want):
    if got != want:
        raise SelfTestError(f"{label}: got {got!r}, expected {want!r}")


def test_oracle_arithmetic():
    _expect("J_1 is Euler's phi", [oracle.jordan_totient(1, n) for n in
                                   (1, 2, 9, 12, 97)], [1, 1, 6, 4, 96])
    _expect("J_2(12)", oracle.jordan_totient(2, 12), 96)
    _expect("Z^4, K=12", oracle.torsion_points(4, 12), 58080)
    _expect("Z^6, K=4", oracle.torsion_points(6, 4), 4824)
    _expect("Z^2, K=12", oracle.torsion_points(2, 12), 528)
    _expect("Z^4, K=8", oracle.torsion_points(4, 8), 8400)
    _expect("Z^6, K=3", oracle.torsion_points(6, 3), 792)
    _expect("Z^2, K=7", oracle.torsion_points(2, 7), 120)
    # Points killed by k number k^r: sum_{d | k} J_r(d) = k^r.
    for r in (1, 2, 4):
        for k in range(1, 13):
            _expect(f"divisor sum r={r} k={k}", sum(
                oracle.jordan_totient(r, d) for d in range(1, k + 1)
                if k % d == 0), k ** r)
    _expect("order", oracle.char_order(
        {"moduli": ["1", "1"], "angles": ["1/4", "5/6"], "torsion": []}), 12)
    _expect("non-unitary order", oracle.char_order(
        {"moduli": ["2"], "angles": ["0"], "torsion": []}), None)


def test_schema():
    schema = {"type": "object", "required": ["tool", "results"],
              "properties": {"tool": {"type": "string", "enum": ["jumploci"]},
                             "results": {"type": ["object", "array"]}}}
    _expect("valid", oracle.schema_errors(
        {"tool": "jumploci", "results": []}, schema), [])
    _expect("invalid", len(oracle.schema_errors(
        {"tool": "other", "results": 3}, schema)), 2)
    _expect("missing", len(oracle.schema_errors({}, schema)), 2)


def test_tracer_self_time():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])
    fake = types.ModuleType("fake")
    alias = types.ModuleType("alias")

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        fake.inner()
        now[0] += 3.0
        alias.inner_copy()
        now[0] += 1.0

    def rec(n):
        now[0] += 1.0
        if n:
            fake.rec(n - 1)

    fake.inner, fake.outer, fake.rec = inner, outer, rec
    alias.inner_copy = inner
    _expect("bindings patched", t.patch([fake, alias], "inner", inner), 2)
    t.patch([fake], "outer", outer)
    t.patch([fake], "rec", rec)
    fake.outer()
    fake.rec(2)
    stats = tracer.layer_stats(t.spans)
    _expect("outer", stats["outer"], {"calls": 1, "busy_s": 9.0, "self_s": 5.0})
    _expect("inner", stats["inner"], {"calls": 2, "busy_s": 4.0, "self_s": 4.0})
    _expect("recursion", stats["rec"], {"calls": 3, "busy_s": 3.0, "self_s": 3.0})


def test_summarize_ratios():
    # One scan of 10 characters, 4 confirmed exactly, 2 members; one
    # confirmation outside the scan does not count against the filter.
    spans = [["twisted.scan", 0.0, 10.0, -1, [10, 2]]]
    spans += [["twisted.confirm", 1.0 + i, 1.5 + i, 0, None] for i in range(4)]
    spans += [["twisted.confirm", 11.0, 12.0, -1, None]]
    out = tracer.summarize({"spans": spans, "counts": {}})
    _expect("keys", sorted(out), list(tracer.PER_LAYER))
    _expect("reject ratio", out["twisted.modp_reject_ratio"], 0.6)
    _expect("confirm yield", out["twisted.confirm_yield"], 0.5)
    _expect("scan self", out["twisted.scan.self_s"], 8.0)
    _expect("confirm calls", out["twisted.confirm.calls"], 5)


def test_point_counter():
    class Coset:
        def iter_torsion_points(self, max_order):
            yield from range(max_order)

        def torsion_points(self, max_order):
            return list(self.iter_torsion_points(max_order))

    t = tracer.Tracer()
    t.count_torsion_points(Coset)
    c = Coset()
    _expect("listed", len(c.torsion_points(5)), 5)
    _expect("lazy all()", all(x < 2 for x in c.iter_torsion_points(5)), False)
    _expect("points checked", t.counts["subtorus.points_checked"], 3)


def test_benchmark_json():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text(encoding="utf-8"))
    _expect("workloads", sorted(w["name"] for w in spec["workloads"]),
            sorted(workloads.WORKLOADS))
    _expect("end_to_end", {m["name"]: m["unit"] for m in spec["end_to_end"]},
            END_TO_END)
    per_layer = {name: tracer.unit_of(name) for name in tracer.PER_LAYER}
    per_layer["trace.overhead_s"] = "s"
    _expect("per_layer", {m["name"]: m["unit"] for m in spec["per_layer"]},
            per_layer)


def run_all():
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()


if __name__ == "__main__":
    run_all()
    print("selftest: ok")
    sys.exit(0)
