import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, cli_env

from jumploci.report import SchemaError, check_schema, load_schema

RUN = [sys.executable, "-m", "jumploci"]


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          cwd=cwd, env=cli_env())


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


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("generators: [a\n")
    res = run_cli("analyze", str(bad))
    assert res.returncode == 1
    assert "parse error" in res.stderr


def test_refusal_exit_code():
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


@pytest.mark.parametrize("args", [
    ("analyze", "z2", "--m", "0", "--K", "2"),
    ("analyze", "z2", "--m", "-1", "--K", "2"),
    ("thm4", "trefoil", "--N", "0", "--K", "3"),
    ("weights", "trefoil", "--N", "-1", "--K", "3"),
    ("higgs", "verify-thm3", "--n", "0"),
    ("higgs", "verify-thm3", "--samples", "-3"),
    ("analyze", "z2", "--K", "3", "--numeric-fallback", "--samples", "-3"),
    ("orbit", "--moduli", "4,2", "--angles", "0"),
])
def test_out_of_range_arguments_are_refused(args):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert "refused" in res.stderr


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
    schema = load_schema(REPO_ROOT / "schema" / "report.schema.json")
    out = tmp_path / "r.json"
    res = run_cli("orbit", "--moduli", "2,3", "--angles", "0,0",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    data = json.loads(out.read_text())
    assert check_schema(data, schema)
    with pytest.raises(SchemaError):
        check_schema({"tool": "other"}, schema)


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
