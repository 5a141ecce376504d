import json
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, cli_env, within_seconds

from jumploci import cli
from jumploci.characters import ExponentMembers, torsion_modulus
from jumploci.discovery import Component, JumpLocusReport
from jumploci.alexander import MAX_TORSION_DUALS
from jumploci.higgs import MAX_TORUS_DIMENSION
from jumploci.report import (REPORT_SCHEMA, SchemaError, build_report,
                             check_schema, dumps_canonical)
from jumploci.subtorus import point_subtorus

RUN = [sys.executable, "-m", "jumploci"]
SHIPPED_SCHEMA = REPO_ROOT / "schema" / "report.schema.json"


def run_cli(*args, cwd=REPO_ROOT, flags=()):
    return subprocess.run([sys.executable, *flags, "-m", "jumploci", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=cli_env())


def test_orbit_command_matches_contract(tmp_path):
    out = tmp_path / "orbit.json"
    res = run_cli("orbit", "--moduli", "4,2", "--angles", "0,0",
                  "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["results"]["dim"] == 1
    assert data["results"]["H"] == [[1, -2]]
    assert data["results"]["unitary_translate"] is True


def test_analyze_and_ng_on_corpus(tmp_path):
    out = tmp_path / "analyze.json"
    res = run_cli("analyze", "surface2", "--i", "1", "--m", "1", "--K", "3",
                  "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    comps = [c for c in data["results"]["components"] if c["certified"]]
    assert len(comps) == 1 and comps[0]["dim"] == 4

    out2 = tmp_path / "ng.json"
    res2 = run_cli("ng", "surface2", "--g", "2", "--K", "3", "--out", str(out2))
    assert res2.returncode == 0
    assert json.loads(out2.read_text())["results"]["N_g"] == 1


def test_analyze_reads_presentation_files(tmp_path):
    out = tmp_path / "z2.json"
    res = run_cli("analyze", "corpus/z2.pres", "--K", "4", "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["results"]["components"]) == 1
    assert data["results"]["components"][0]["dim"] == 0


def test_corpus_names_resolve_against_the_checkout(tmp_path):
    # A name is corpus/<name>.pres of the checkout the package runs from,
    # whatever the working directory.
    res = subprocess.run(RUN + ["analyze", "z2", "--K", "4"],
                         capture_output=True, cwd=tmp_path, env=cli_env())
    assert res.returncode == 0, res.stderr
    expected = REPO_ROOT / "corpus" / "expected" / "analyze_z2_K4.json"
    assert res.stdout == expected.read_bytes()


@pytest.mark.parametrize("name", ["../corpus/z2", "z2.pres", "expected"])
def test_only_listed_corpus_stems_are_names(tmp_path, name):
    res = run_cli("analyze", name, "--K", "2", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("parse error: "), res.stderr


# Counts the opens and listings of the corpus directory argv[1] and of
# its files: at import, then after one name lookup.
CORPUS_READS = """
import os
import sys

seen = []

def hook(event, args):
    if (event in ("open", "os.listdir", "os.scandir") and args
            and isinstance(args[0], (str, bytes))
            and os.fsdecode(args[0]).startswith(sys.argv[1])):
        seen.append(event)

sys.addaudithook(hook)
import jumploci.cli
print(len(seen))
jumploci.corpus.names()
print(len(seen))
"""


def test_importing_the_cli_reads_no_corpus_file():
    res = subprocess.run([sys.executable, "-c", CORPUS_READS,
                          str(REPO_ROOT / "corpus")], capture_output=True,
                         text=True, cwd=REPO_ROOT, env=cli_env())
    assert res.returncode == 0, res.stderr
    # None at import; the lookup afterwards shows that the hook sees them.
    assert res.stdout.split() == ["0", "1"]


def test_package_without_a_corpus_directory(tmp_path):
    shutil.copytree(REPO_ROOT / "src" / "jumploci",
                    tmp_path / "src" / "jumploci",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert not (tmp_path / "corpus").exists()
    shutil.copyfile(REPO_ROOT / "corpus" / "z2.pres", tmp_path / "z2.pres")
    env = dict(cli_env(), PYTHONPATH=str(tmp_path / "src"))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, cwd=tmp_path, env=env)

    res = run("-c", "import jumploci.cli, jumploci.corpus as c; "
                    "print(c.CORPUS_DIR, c.names())")
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"{tmp_path / 'corpus'} []\n"
    res = run("-m", "jumploci", "analyze", "z2.pres", "--K", "2")
    assert res.returncode == 0, res.stderr
    res = run("-m", "jumploci", "analyze", "z2", "--K", "2")
    assert res.returncode == 1
    assert res.stderr.startswith("parse error: "), res.stderr


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("generators: [a\n")
    res = run_cli("analyze", str(bad))
    assert res.returncode == 1
    assert "parse error" in res.stderr


def test_refusal_exit_code(tmp_path):
    # degree-2 request on a presentation not flagged aspherical
    res = run_cli("analyze", "torus_bundle3", "--i", "2", "--K", "3")
    assert res.returncode == 2
    assert "refused" in res.stderr
    res2 = run_cli("ng", "surface2", "--g", "1", "--K", "3")
    assert res2.returncode == 2
    # a cover past presentation.MAX_COVER_INDEX (index 1296 here)
    res3 = run_cli("thm4", "s2xz2", "--K", "3")
    assert res3.returncode == 2
    assert "above the limit" in res3.stderr
    # a torus past higgs.MAX_TORUS_DIMENSION, before any Koszul matrix
    res4 = within_seconds(1, run_cli, "higgs", "verify-thm3", "--n",
                          str(MAX_TORUS_DIMENSION + 1))
    assert res4.returncode == 2
    assert "above the limit" in res4.stderr
    # an annihilator that is not saturated: 2 x_1 = 0, x_2 = 0 cuts out
    # the two points (1, 1) and (-1, 1), not one component
    comp = tmp_path / "unsaturated.json"
    comp.write_text(json.dumps({"H": [[2, 0], [0, 1]],
                                "tau": {"angles": ["0", "0"]}}))
    res5 = run_cli("certify", "z2", "--component", str(comp))
    assert res5.returncode == 2
    assert "not saturated" in res5.stderr and res5.stdout == ""


# One case per exit class but 70 (test_internal_error_exits_70), each
# also under python -O: the classes rest on explicit raises, not asserts.
@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("args,code,prefix", [
    (("analyze", "z2", "--K", "2", "--out", "-"), 0, ""),
    (("analyze", "no_such_input.pres"), 1, "parse error: "),
    (("analyze", "z2", "--i", "3", "--K", "3"), 2, "refused: "),
], ids=["success", "parse", "refusal"])
def test_exit_classes(args, code, prefix, flags):
    res = run_cli(*args, flags=flags)
    assert res.returncode == code, res.stderr
    assert res.stderr.startswith(prefix) and "Traceback" not in res.stderr
    assert (res.stdout != "") == (code == 0) == (res.stderr == "")


PLANTED = """
import sys
import jumploci.cli as cli
from jumploci.errors import InvariantError

def planted(*args, **kwargs):
    raise {exc}("planted fault")

cli.discover_components = planted
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("exc", ["InvariantError", "ValueError"])
def test_internal_error_exits_70(exc, flags):
    # Neither a broken invariant nor a stray ValueError is a refusal.
    res = subprocess.run(
        [sys.executable, *flags, "-c", PLANTED.format(exc=exc),
         "analyze", "z2", "--K", "2"],
        capture_output=True, text=True, cwd=REPO_ROOT, env=cli_env())
    assert res.returncode == 70, res.stderr
    assert res.stderr.startswith("Traceback")
    assert f"{exc}: planted fault" in res.stderr
    assert "refused:" not in res.stderr and res.stdout == ""


def test_unwritable_out_exits_70(tmp_path):
    res = run_cli("analyze", "z2", "--K", "2",
                  "--out", str(tmp_path / "no_such_dir" / "r.json"))
    assert res.returncode == 70
    assert "FileNotFoundError" in res.stderr and "refused:" not in res.stderr


MODEL = {"n": 1, "period": [[["1", "0"]], [["0", "1"]]]}
COMPONENT = {"H": [], "tau": {"angles": ["0", "0"]}}


@pytest.mark.parametrize("command,option,content", [
    ("certify", "--component", None),
    ("higgs", "--model", None),
    ("certify", "--component", {"H": []}),
    ("higgs", "--model", {"n": 1}),
    ("certify", "--component", "{not json"),
    ("higgs", "--model", "{not json"),
    ("certify", "--component", {"H": [], "tau": {"angles": ["0", "x"]}}),
    ("certify", "--component", {"H": [], "tau": {"angles": ["0", "1/0"]}}),
    ("certify", "--component", {"H": [["1", 0]], "tau": {"angles": ["0", "0"]}}),
    ("higgs", "--model", {"n": 1, "period": [[["1", "0"]], [["0", "i"]]]}),
], ids=["component-missing", "model-missing", "tau-key-missing",
        "period-key-missing", "component-not-json", "model-not-json",
        "tau-not-rational", "tau-zero-denominator", "H-not-integers",
        "period-not-rational"])
def test_unreadable_input_files_are_parse_errors(tmp_path, command, option,
                                                 content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
    args = (("certify", "z2") if command == "certify"
            else ("higgs", "verify-thm3", "--samples", "1"))
    res = run_cli(*args, option, str(path))
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("parse error: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ("orbit", "--moduli", "4,x", "--angles", "0,0"),
    ("orbit", "--moduli", "4,2", "--angles", "0,1/0"),
    ("orbit", "--moduli", "4,2", "--angles", "0,nan"),
], ids=["moduli-text", "angles-zero-denominator", "angles-nan"])
def test_malformed_rationals_are_parse_errors(args):
    res = run_cli(*args)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("parse error: --")
    assert "Traceback" not in res.stderr


def test_period_entry_must_be_a_pair(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": 1, "period": [[["1", "0", "0"]],
                                                   [["0", "1"]]]}))
    res = run_cli("higgs", "verify-thm3", "--samples", "1", "--model",
                  str(path))
    assert res.returncode == 1, res.stderr
    assert "a period entry must be a pair [re, im]" in res.stderr


def test_well_formed_input_files_still_run(tmp_path):
    for option, content, args in (
            ("--component", COMPONENT, ("certify", "z2")),
            ("--model", MODEL, ("higgs", "verify-thm3", "--samples", "3"))):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        res = run_cli(*args, option, str(path))
        assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("args", [
    ("analyze", "product23", "--K", "4"),       # 1,107,624 characters
    ("thm4", "square_comm", "--K", "4"),        # its Z^9 cover: 281,826
])
def test_scan_past_budget_is_refused(args):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert "above the limit 100000" in res.stderr


def test_degree_above_two_is_refused():
    res = run_cli("analyze", "z2", "--i", "3", "--K", "3")
    assert res.returncode == 2
    assert "refused" in res.stderr


# Documented limits and the refusal each gives.
REFUSALS = {
    ("analyze", "z2", "--K", "1"): "scan order must be at least 2",
    ("ng", "surface2", "--g", "2", "--K", "1"): "scan order must be at least 2",
    ("cover", "surface2", "--K", "1"): "scan order must be at least 2",
    ("thm4", "bs12"): "numeric weights present",
    ("weights", "trefoil", "--K", "0"): "max order must be at least 1",
    ("thm4", "trefoil", "--K", "0"): "max order must be at least 1",
}


@pytest.mark.parametrize("args", [
    ("analyze", "z2", "--m", "0", "--K", "2"),
    ("analyze", "z2", "--m", "-1", "--K", "2"),
    ("thm4", "trefoil", "--N", "0", "--K", "3"),
    ("weights", "trefoil", "--N", "-1", "--K", "3"),
    ("higgs", "verify-thm3", "--n", "0"),
    ("higgs", "verify-thm3", "--samples", "-3"),
    ("analyze", "z2", "--K", "3", "--numeric-fallback", "--samples", "-3"),
    ("orbit", "--moduli", "4,2", "--angles", "0"),
    *REFUSALS,
])
def test_out_of_range_arguments_are_refused(args):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert "refused" in res.stderr
    assert REFUSALS.get(args, "") in res.stderr


def test_numeric_fallback_scans_a_group_without_relators():
    # free2's Fox matrix has no rows, so every sample has rank 0 and
    # h1 = 1 off the trivial character: each is a flagged candidate.
    res = run_cli("analyze", "free2", "--K", "3", "--numeric-fallback",
                  "--samples", "3")
    assert res.returncode == 0, res.stderr
    found = json.loads(res.stdout)["results"]["numeric_candidates"]
    assert len(found) == 3 and all(c["flag"] == "numeric" for c in found)


@pytest.mark.parametrize("group,component", [
    ("z2", {"H": [[1]], "tau": {"angles": ["0", "0"]}}),
    ("z2", {"H": [], "tau": {"angles": ["0"]}}),
    ("c3xz", {"H": [], "tau": {"angles": ["0", "0"]}}),
    ("c3xz", {"H": [], "tau": {"angles": ["0"]}}),
])
def test_malformed_certify_component_is_refused(tmp_path, group, component):
    comp = tmp_path / "comp.json"
    comp.write_text(json.dumps(component))
    res = run_cli("certify", group, "--component", str(comp))
    assert res.returncode == 2, res.stderr
    assert "refused" in res.stderr


def test_orbit_refuses_to_factor_past_its_limit():
    # 2^61 - 1 is prime: trial division to its square root ran for minutes.
    res = within_seconds(10, run_cli, "orbit", "--moduli",
                         "4,2305843009213693951", "--angles", "0,0")
    assert res.returncode == 2, res.stderr
    assert "is not factored" in res.stderr


@pytest.mark.parametrize("gens,relators", [
    (["a", "t"], ["a^1000", "[a, t]"]),
    ([f"a{i}" for i in range(8)] + ["t"],
     [f"a{i}^2" for i in range(8)] + [f"[a{i}, t]" for i in range(8)]
     + [f"[a{i}, a{j}]" for i in range(8) for j in range(i + 1, 8)]),
], ids=["Z1000xZ", "Z2^8xZ"])
def test_weights_refuse_a_torsion_dual_past_its_limit(tmp_path, gens,
                                                      relators):
    # Z/1000 + Z ran past 60 s, one Fox specialization per character of
    # Z/1000; both duals are now refused before the first one.
    pres = tmp_path / "dual.pres"
    pres.write_text(f"generators: [{', '.join(gens)}]\nrelators: "
                    f"{json.dumps(relators)}\n")
    for command in ("weights", "thm4"):
        res = within_seconds(1, run_cli, command, str(pres), "--K", "2")
        assert res.returncode == 2, res.stderr
        assert f"above the limit {MAX_TORSION_DUALS}" in res.stderr


def test_analyze_refuses_a_relator_past_the_letter_limit(tmp_path):
    # a^100000000 was expanded by repeated concatenation and still running
    # after 30 s; its length is now refused before it is expanded.
    pres = tmp_path / "long.pres"
    pres.write_text('generators: [a, b]\nrelators: ["a^100000000"]\n')
    res = within_seconds(10, run_cli, "analyze", str(pres))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("refused: ") and "line 2" in res.stderr


@pytest.mark.parametrize("text,line", [
    ('generators: [a, b]\nrelaters: ["[a,b]"]\n', 2),
    ('generators: [a, b]\nrelators: ["a"]\nrelators: ["b"]\n', 3),
], ids=["unknown-key", "repeated-key"])
def test_misspelt_or_repeated_keys_are_parse_errors(tmp_path, text, line):
    # Both once analysed a presentation other than the one written.
    pres = tmp_path / "keys.pres"
    pres.write_text(text)
    res = run_cli("analyze", str(pres), "--K", "2")
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("parse error: ")
    assert f"at line {line}" in res.stderr


def test_certify_refuses_a_translate_past_the_conductor_limit(tmp_path):
    # One angle 1/2^55 asks for Q(zeta_(2^55)); it once exhausted memory.
    comp = tmp_path / "comp.json"
    comp.write_text(json.dumps(
        {"H": [], "tau": {"angles": [f"1/{2 ** 55}", "0", "0", "0"]}}))
    res = run_cli("certify", "surface2", "--component", str(comp))
    assert res.returncode == 2, res.stderr
    assert f"conductor {2 ** 55} is above the limit 10000" in res.stderr


def test_report_ignores_environment():
    # A report is a function of argv and the input alone: the former
    # scan-pool setting JUMPLOCI_WORKERS changes no byte of it.
    env = cli_env()
    env["JUMPLOCI_WORKERS"] = "2"
    res = subprocess.run(RUN + ["analyze", "z2", "--K", "4", "--out", "-"],
                         capture_output=True, text=True, cwd=REPO_ROOT,
                         env=env)
    assert res.returncode == 0, res.stderr
    expected = REPO_ROOT / "corpus" / "expected" / "analyze_z2_K4.json"
    assert res.stdout == expected.read_text()


def test_weights_thm4_cover_commands(tmp_path):
    out = tmp_path / "w.json"
    assert run_cli("weights", "trefoil", "--K", "6", "--out", str(out)).returncode == 0
    data = json.loads(out.read_text())
    assert data["results"]["identity_holds"] is True
    assert len(data["results"]["weights"]) == 3

    out2 = tmp_path / "t4.json"
    assert run_cli("thm4", "torus_bundle3", "--N", "2", "--K", "6",
                   "--out", str(out2)).returncode == 0
    data2 = json.loads(out2.read_text())
    assert data2["results"]["passed"] is True

    out3 = tmp_path / "cover.json"
    assert run_cli("cover", "swap_torus", "--K", "4",
                   "--out", str(out3)).returncode == 0
    data3 = json.loads(out3.read_text())
    assert data3["results"]["trivial_cover"] is False


def test_certify_command(tmp_path):
    comp = tmp_path / "comp.json"
    comp.write_text(json.dumps({
        "H": [],
        "tau": {"angles": ["0", "0", "0", "0"],
                "moduli": ["1", "1", "1", "1"], "torsion": []},
    }))
    out = tmp_path / "cert.json"
    res = run_cli("certify", "surface2", "--component", str(comp),
                  "--i", "1", "--m", "2", "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["results"]["certified"] is True
    assert data["results"]["generic_h1"] == 2
    res2 = run_cli("certify", "surface2", "--component", str(comp),
                   "--i", "1", "--m", "3", "--out", str(out))
    assert res2.returncode == 0
    assert json.loads(out.read_text())["results"]["certified"] is False


def test_higgs_command(tmp_path):
    out = tmp_path / "h.json"
    res = run_cli("higgs", "verify-thm3", "--n", "1", "--samples", "9",
                  "--seed", "1", "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["results"]["passed"] is True
    assert data["config"]["seed"] == 1


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = run_cli("analyze", "swap_torus", "--K", "4", "--out", str(out))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_reports_validate_against_shipped_schema(tmp_path):
    schema = json.loads(SHIPPED_SCHEMA.read_text(encoding="utf-8"))
    out = tmp_path / "r.json"
    res = run_cli("orbit", "--moduli", "2,3", "--angles", "0,0",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    data = json.loads(out.read_text())
    assert check_schema(data, schema)
    with pytest.raises(SchemaError):
        check_schema({"tool": "other"}, schema)


def test_shipped_schema_is_the_one_the_cli_checks():
    shipped = json.loads(SHIPPED_SCHEMA.read_text(encoding="utf-8"))
    assert {k: v for k, v in shipped.items()
            if k not in ("$schema", "title")} == REPORT_SCHEMA


def test_dumps_canonical_is_json_dumps():
    report = build_report("x", {"b": 1, "a": [1, {"z": None, "\u00e9": 0.5}]},
                          {"k": ["\u00fc", True, [], {}], "j": -2})
    assert dumps_canonical(report) == json.dumps(report, sort_keys=True,
                                                 indent=2) + "\n"


@st.composite
def analyze_reports(draw):
    """A JumpLocusReport on a random torus: free rank 0-6, torsion or
    none, up to 8 members (possibly none) with 2 or 3 dims, and some of
    them again as point components and residual points."""
    b = draw(st.integers(0, 6))
    torsion = tuple(draw(st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2)))
    K = draw(st.integers(1, 7))
    n = torsion_modulus(K, torsion)
    vector = st.tuples(*[st.integers(0, n - 1)] * b,
                       *[st.integers(0, d - 1).map(lambda x, d=d: x * n // d)
                         for d in torsion])
    width = draw(st.sampled_from([2, 3]))
    pairs = sorted(draw(st.lists(st.tuples(
        vector, st.tuples(*[st.integers(0, 12)] * width)),
        max_size=8, unique_by=lambda pair: pair[0])))
    vectors = ExponentMembers(b, torsion, n, pairs)
    residual = [chi for chi, _ in vectors.characters()[:draw(st.integers(0, 2))]]
    components = [Component(point_subtorus(chi), "certified", 1)
                  for chi in residual]
    return JumpLocusReport(draw(st.integers(0, 2)), 1, K, vectors,
                           components, residual, draw(st.integers(0, 10 ** 5)))


# Members that repeat their dims, within one torsion class and across two.
_REPEATED_DIMS = ExponentMembers(2, (2,), 2, [
    ((0, 0, 0), (2, 1)), ((0, 1, 0), (1, 0)), ((0, 1, 1), (1, 0)),
    ((1, 0, 0), (1, 0)), ((1, 0, 1), (1, 0)), ((1, 1, 1), (2, 1))])


@settings(max_examples=150, deadline=None)
@given(analyze_reports())
@example(JumpLocusReport(1, 1, 2, _REPEATED_DIMS, [], [], 8))
def test_dumps_canonical_writes_vector_members_as_json_dumps(rep):
    # The member list written from exponent vectors has the bytes of
    # json.dumps on the members' dicts, at the depth a report puts it.
    results = rep.serialize()
    plain = results | {"members": [chi.serialize() | {"dims": list(d)}
                                   for chi, d in rep.members]}
    config = {"input": "x", "K": rep.max_order}
    assert dumps_canonical(build_report("analyze", config, results)) == \
        json.dumps(build_report("analyze", config, plain), sort_keys=True,
                   indent=2) + "\n"


def test_expected_report_fixtures_regression():
    # The fixtures are tracked, so a missing manifest fails the test.
    fixture_dir = REPO_ROOT / "corpus" / "expected"
    manifest = json.loads((fixture_dir / "manifest.json").read_text())
    assert manifest, "corpus/expected/manifest.json lists no fixtures"
    for entry in manifest:
        res = run_cli(*entry["args"], "--out", "-")
        assert res.returncode == 0, (entry["args"], res.stderr)
        expected = (fixture_dir / entry["file"]).read_text()
        assert res.stdout == expected, entry["file"]


def _readme_usage():
    """{command: {option: (optional, shown value)}} from the README's CLI
    block; INPUT stands for the positional option input."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    usage = {}
    for line in re.sub(r"\n\s+", " ", block).strip().splitlines():
        words = line.split()
        assert words[0] == "jumploci", line
        n = 1
        while not words[n].startswith(("-", "[")) and words[n] != "INPUT":
            n += 1
        rest = " ".join(words[n:])
        options = {}
        for m in re.finditer(r"\[(--[\w-]+)(?: ([^\]]+))?\]|(--[\w-]+) (\S+)"
                             r"|(INPUT)", rest):
            opt, shown, req, value, positional = m.groups()
            if positional:
                options["input"] = (False, None)
            elif opt:
                options[opt] = (True, shown)
            else:
                options[req] = (False, value)
        usage[" ".join(words[1:n])] = options
    return usage


def test_readme_cli_block_matches_the_command_table():
    usage = _readme_usage()
    assert list(usage) == list(cli.COMMANDS)
    for name, (_, options, _) in cli.COMMANDS.items():
        shown = usage[name]
        assert set(shown) == set(options) | {"--out"}, name
        for option, (optional, value) in shown.items():
            spec = cli.OPTIONS[option]
            if option == "input" or spec.get("required"):
                assert not optional, (name, option)
            elif spec.get("action") == "store_true":
                assert optional and value is None, (name, option)
            elif spec["default"] is None:
                assert optional and value.isupper(), (name, option)
            else:
                assert optional and value == str(spec["default"]), \
                    (name, option)
