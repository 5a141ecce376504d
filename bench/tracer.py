"""Span tracer that wraps jumploci's public functions from outside.

A target function is replaced, by object identity, at every attribute of
every loaded ``jumploci`` module bound to it: ``from .twisted import
scan_sigma`` copies the function into ``discovery`` and ``alexander``, so
patching only the defining module would miss those calls.  Each call
records one span ``[name, start, end, parent, extra]`` in memory; the
spans are written once, when the pass ends.

``summarize`` turns spans into per-layer figures.  A layer's busy time
counts only its outermost spans (``check_schema`` recurses), and its
self time is each span's duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _length(result):
    return len(result)


def _scan_counts(result):
    return [result.scanned, len(result.hits)]


def _certify_status(result):
    return result[0]


def _report_bytes(result):
    return len(result.encode("utf-8"))


# (layer name, module, function, extractor of a small per-call figure)
TARGETS = (
    ("characters.enumerate", "jumploci.characters",
     "enumerate_torsion_characters", _length),
    ("twisted.scan", "jumploci.twisted", "scan_sigma", _scan_counts),
    ("twisted.confirm", "jumploci.twisted", "twisted_cohomology_dims", None),
    ("twisted.coboundary", "jumploci.twisted", "coboundary_matrices", None),
    ("cyclotomic.rank_exact", "jumploci.cyclotomic", "rank_exact", None),
    ("discovery.discover", "jumploci.discovery", "discover_components", None),
    ("discovery.certify", "jumploci.discovery", "certify_component",
     _certify_status),
    ("subtorus.from_directions", "jumploci.subtorus",
     "subtorus_from_directions", None),
    ("laurent.rank_generic", "jumploci.laurent", "rank_generic", None),
    ("higgs.lattice_dims", "jumploci.higgs", "lattice_cohomology_dims", None),
    ("higgs.splitting_check", "jumploci.higgs", "splitting_check", None),
    ("presentation.abelianize", "jumploci.presentation", "abelianize", None),
    ("presentation.fox_matrix", "jumploci.presentation", "fox_matrix", None),
    ("presentation.reidemeister_schreier", "jumploci.presentation",
     "reidemeister_schreier", None),
    ("alexander.weights", "jumploci.alexander", "weights_and_inverses", None),
    ("alexander.cover_check", "jumploci.alexander",
     "finite_locus_cover_check", None),
    ("report.write", "jumploci.report", "write_report", _report_bytes),
    ("report.check_schema", "jumploci.report", "check_schema", None),
)


class Tracer:
    """In-memory span recorder; ``clock`` is injectable for self-tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn, extract=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[4] = extract(result)
            return result

        return traced

    def patch(self, modules, name, fn, extract=None):
        """Replace fn at every attribute of ``modules`` bound to it."""
        traced = self.wrap(name, fn, extract)
        bound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    bound += 1
        return bound

    def count_torsion_points(self, subtorus_class):
        """Count the coset points that lazy subset checks consume.

        ``iter_torsion_points`` is consumed lazily only by coset growth;
        ``torsion_points`` drains it to list a whole coset, so points
        drawn through it are not counted."""
        counts = self.counts
        counts["subtorus.points_checked"] = 0
        listing = [0]
        iter_points = subtorus_class.iter_torsion_points
        list_points = subtorus_class.torsion_points

        def iter_torsion_points(sub, max_order):
            for point in iter_points(sub, max_order):
                if not listing[0]:
                    counts["subtorus.points_checked"] += 1
                yield point

        def torsion_points(sub, max_order):
            listing[0] += 1
            try:
                return list_points(sub, max_order)
            finally:
                listing[0] -= 1

        subtorus_class.iter_torsion_points = iter_torsion_points
        subtorus_class.torsion_points = torsion_points

    def install_jumploci(self):
        """Trace every target in the loaded jumploci modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "jumploci" or n.startswith("jumploci.")]
        for name, module_name, attr, extract in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            if not self.patch(modules, name, fn, extract):
                raise RuntimeError(f"{module_name}.{attr} is not bound")
        self.count_torsion_points(sys.modules["jumploci.subtorus"].TranslatedSubtorus)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def layer_stats(spans):
    """{name: {"calls", "busy_s", "self_s"}} from a list of spans."""
    stats = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, parent, name):
            s["busy_s"] += end - start
    return stats


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(trace):
    """Per-layer metrics (name -> value) of one traced pass."""
    spans, counts = trace["spans"], trace["counts"]
    stats = layer_stats(spans)

    def stat(name, key):
        return stats.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    def extras(name):
        return [s[4] for s in spans if s[0] == name]

    scans = extras("twisted.scan")
    scanned = sum(s[0] for s in scans)
    hits = sum(s[1] for s in scans)
    confirmations = sum(1 for s in spans if s[0] == "twisted.confirm"
                        and _has_ancestor(spans, s[3], "twisted.scan"))
    statuses = extras("discovery.certify")
    out = {
        "characters.enumerate.chars": sum(extras("characters.enumerate")),
        "twisted.scan.scanned": scanned,
        "twisted.scan.hits": hits,
        "twisted.modp_reject_ratio": _ratio(scanned - confirmations, scanned),
        "twisted.confirm_yield": _ratio(hits, confirmations),
        "discovery.certified": statuses.count("certified"),
        "discovery.refuted": statuses.count("refuted"),
        "subtorus.points_checked": counts.get("subtorus.points_checked", 0),
        "report.bytes": sum(extras("report.write")),
    }
    for name, keys in LAYER_FIGURES:
        for key in keys:
            out[f"{name}.{key}"] = stat(name, key)
    return out


# Span-derived figures reported per layer, as named in BENCHMARK.json.
LAYER_FIGURES = (
    ("characters.enumerate", ("calls", "busy_s")),
    ("twisted.scan", ("calls", "busy_s", "self_s")),
    ("twisted.confirm", ("calls", "busy_s", "self_s")),
    ("twisted.coboundary", ("calls", "busy_s")),
    ("cyclotomic.rank_exact", ("calls", "busy_s")),
    ("discovery.discover", ("busy_s", "self_s")),
    ("discovery.certify", ("calls", "busy_s")),
    ("subtorus.from_directions", ("calls", "busy_s")),
    ("laurent.rank_generic", ("calls", "busy_s")),
    ("higgs.lattice_dims", ("calls", "busy_s", "self_s")),
    ("higgs.splitting_check", ("calls",)),
    ("presentation.abelianize", ("busy_s",)),
    ("presentation.fox_matrix", ("busy_s",)),
    ("presentation.reidemeister_schreier", ("calls", "busy_s")),
    ("alexander.weights", ("busy_s", "self_s")),
    ("alexander.cover_check", ("busy_s", "self_s")),
    ("report.write", ("busy_s",)),
    ("report.check_schema", ("busy_s",)),
)

# Every metric ``summarize`` returns; trace.overhead_s comes from run.py.
PER_LAYER = tuple(sorted(summarize({"spans": [], "counts": {}})))


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "bytes" if name == "report.bytes" else "count"
