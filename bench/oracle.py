"""Independent checks of jumploci reports.

Nothing here imports the program.  Torsion-point counts come from
Jordan's totient: the characters of Z^r killed by exactly d number
J_r(d) = d^r prod_{p | d} (1 - p^-r), so a scan of order <= K visits
sum_{d <= K} J_r(d) characters.  Every fact checked is invariant under
the Tietze moves the benchmark applies to its inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def jordan_totient(k, n):
    value = n ** k
    for p in prime_factors(n):
        value = value // p ** k * (p ** k - 1)
    return value


def torsion_points(rank, max_order):
    """Characters of Z^rank of order <= max_order."""
    return sum(jordan_totient(rank, d) for d in range(1, max_order + 1))


# --- report schema (the subset of JSON Schema the shipped schema uses)

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None)}


def _type_ok(value, stype):
    for t in stype if isinstance(stype, list) else [stype]:
        if t in ("integer", "number"):
            if isinstance(value, bool):
                continue
            if isinstance(value, int) or (t == "number" and isinstance(value, float)):
                return True
        elif isinstance(value, _TYPES[t]):
            return True
    return False


def schema_errors(instance, schema, path="$"):
    stype = schema.get("type")
    if stype and not _type_ok(instance, stype):
        return [f"{path}: not of type {stype}"]
    errors = []
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum")
    if isinstance(instance, dict):
        errors += [f"{path}: missing {key!r}"
                   for key in schema.get("required", []) if key not in instance]
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                errors += schema_errors(instance[key], sub, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors += schema_errors(item, schema["items"], f"{path}[{i}]")
    return errors


# --- characters as serialized in reports

def char_order(chi):
    """Order of a unitary torsion character, or None if not one."""
    if any(Fraction(m) != 1 for m in chi["moduli"]):
        return None
    order = 1
    for a in chi["angles"] + chi["torsion"]:
        den = Fraction(a).denominator
        order = order * den // gcd(order, den)
    return order


def _is_trivial(chi):
    return char_order(chi) == 1


def _expect(errors, label, got, want):
    if got != want:
        errors.append(f"{label}: got {got!r}, expected {want!r}")


def _order_histogram(chars):
    hist = {}
    for chi in chars:
        k = char_order(chi)
        hist[k] = hist.get(k, 0) + 1
    return hist


def check_isolated_trivial(results, rank, max_order):
    """Z^rank: H^1 vanishes off the trivial character, so the scan finds
    exactly one member, the trivial one, certified as a point."""
    errors = []
    _expect(errors, "scanned", results["scanned"], torsion_points(rank, max_order))
    members = results["members"]
    _expect(errors, "members", len(members), 1)
    if members:
        _expect(errors, "member is trivial", _is_trivial(members[0]), True)
        _expect(errors, "member dims", members[0]["dims"], [1, rank])
    comps = results["components"]
    _expect(errors, "components", len(comps), 1)
    if comps:
        c = comps[0]
        _expect(errors, "component", (c["dim"], c["status"], c["certified"],
                                      c["contains_trivial"]),
                (0, "certified", True, True))
    _expect(errors, "residual", results["residual"], [])
    return errors


def check_surface(results, genus, max_order):
    """Surface group of genus g: every torsion character is a member, with
    dims (1, 2g, 1) at the trivial one and (0, 2g - 2, 0) elsewhere; the
    locus is the whole torus, one certified component of dim 2g."""
    errors = []
    rank = 2 * genus
    total = torsion_points(rank, max_order)
    _expect(errors, "scanned", results["scanned"], total)
    members = results["members"]
    _expect(errors, "members", len(members), total)
    want = {d: jordan_totient(rank, d) for d in range(1, max_order + 1)}
    _expect(errors, "member orders", _order_histogram(members), want)
    bad = [m for m in members if m["dims"] != (
        [1, rank, 1] if _is_trivial(m) else [0, rank - 2, 0])]
    _expect(errors, "members with wrong dims", len(bad), 0)
    comps = results["components"]
    _expect(errors, "components", len(comps), 1)
    if comps:
        c = comps[0]
        _expect(errors, "component", (c["dim"], c["H"], c["status"],
                                      c["contains_trivial"], c["generic_h1"]),
                (rank, [], "certified", True, rank - 2))
    _expect(errors, "residual", results["residual"], [])
    return errors


def check_trefoil_cover(results, max_order):
    """The trefoil's index-6 cover killing its finite locus is F2 x Z
    (7 generators).  By Kunneth its first jump locus is the rank-2
    subtorus {rho|Z = 1}: exactly J_2(d) characters of each order d >= 2
    survive, and with the trivial one, those killed by k form a subgroup
    of order k^2."""
    errors = []
    _expect(errors, "cover_index", results["cover_index"], 6)
    _expect(errors, "cover_generators", results["cover_generators"], 7)
    _expect(errors, "trivial_cover", results["trivial_cover"], False)
    _expect(errors, "passed", results["passed"], False)
    surviving = results["surviving_nontrivial"]
    want = {d: jordan_totient(2, d) for d in range(2, max_order + 1)}
    _expect(errors, "surviving orders", _order_histogram(surviving), want)
    points = [tuple(Fraction(a) % 1 for a in c["angles"] + c["torsion"])
              for c in surviving]
    _expect(errors, "distinct surviving", len(set(points)), len(surviving))
    if points:
        zero = (Fraction(0),) * len(points[0])
        for k in range(2, max_order + 1):
            group = {p for p in points
                     if all((k * a).denominator == 1 for a in p)} | {zero}
            _expect(errors, f"{k}-torsion subgroup", _is_subgroup(group, k),
                    True)
    return errors


def _is_subgroup(group, k):
    if len(group) != k * k:
        return False
    return all(tuple((a + b) % 1 for a, b in zip(p, q)) in group
               for p in group for q in group)


def check_higgs(results, n, samples):
    """The degreewise splitting holds for every sampled character."""
    errors = []
    _expect(errors, "samples", results["samples"], samples)
    _expect(errors, "degree_checks", results["degree_checks"],
            samples * (2 * n + 1))
    _expect(errors, "failures", results["failures"], [])
    _expect(errors, "passed", results["passed"], True)
    return errors
