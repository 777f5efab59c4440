"""End-to-end command-line behavior: payloads, files, and exit codes."""

import json

import pytest

from icofold import cli
from icofold.export import read_csv

GOOD_SEED = "# a twelve-vertex seed\n@closure on\n0,1,tau\n"


def run_json(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


# --- informational commands --------------------------------------------

def test_group_info(capsys):
    payload = run_json(capsys, ["group-info"])
    assert payload["rotation_order"] == 60
    assert payload["full_order"] == 120
    assert payload["axes"] == {"2": 15, "3": 10, "5": 6}
    assert payload["element_order_histogram"] == {
        "1": 1, "2": 31, "3": 20, "5": 24, "6": 20, "10": 24,
    }


def test_configs_catalog(capsys):
    payload = run_json(capsys, ["configs"])
    rows = {row["name"]: row for row in payload["configs"]}
    assert set(rows) == {"icosahedron", "dodecahedron", "icosidodecahedron",
                         "c60", "c80"}
    assert rows["c60"]["vertices"] == 60 and rows["c60"]["trivalent"]
    assert rows["c80"]["vertices"] == 80 and rows["c80"]["trivalent"]
    assert not rows["icosahedron"]["trivalent"]
    assert len(rows["c80"]["radius2_spectrum"]) == 2


def test_configs_single(capsys):
    payload = run_json(capsys, ["configs", "--config", "dodecahedron"])
    assert payload["name"] == "dodecahedron"
    assert payload["vertices"] == 20


# --- pentagon -------------------------------------------------------------

def test_pentagon_default_json(capsys):
    payload = run_json(capsys, ["pentagon"])
    assert payload == {
        "length": "tau",
        "direction": "vertex",
        "generic": 30,
        "actual": 25,
        "coincidences": 5,
        "nontrivial": True,
    }


def test_pentagon_csv(capsys):
    code = cli.run(["pentagon", "--length", "1", "--emit", "csv"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "x,y"
    assert len(lines) == 1 + 20
    x, y = lines[1].split(",")
    float(x), float(y)  # parse as floats


# --- extend ------------------------------------------------------------------

def test_extend_json_row(capsys):
    payload = run_json(capsys, [
        "extend", "--config", "c60", "--axis", "5", "--length", "3",
        "--band-gap", "0.05",
    ])
    assert payload["start"] == "c60"
    assert payload["fold"] == 5
    assert payload["length"] == "3"
    assert payload["depth"] == 1
    assert payload["cage"]["count"] == 240
    assert payload["cage"]["faces"] == {"5": 12, "6": 110, "other": 0}
    # at this narrow gap the outermost band alone is not trivalent even
    # though the cage (which spans several bands) is
    assert not payload["bands"][-1]["trivalent"]


def test_extend_xyz_artifact(capsys):
    code = cli.run(["extend", "--config", "c60", "--axis", "5",
                    "--length", "3", "--emit", "xyz"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "240"
    assert lines[1].startswith("start=c60 fold=5 length=3 depth=1 band=")
    assert len(lines) == 242


def test_extend_off_artifact(capsys):
    code = cli.run(["extend", "--config", "dodecahedron", "--axis", "5",
                    "--length", "1", "--emit", "off"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "OFF"
    assert out.splitlines()[1] == "80 120 42"


# --- classify -------------------------------------------------------------------

def test_classify_small_scan(capsys):
    argv = ["classify", "--config", "icosidodecahedron",
            "--scan", "a=1..3,b=0..0,c=1..1,max=40"]
    payload = run_json(capsys, argv)
    assert payload["start"] == "icosidodecahedron"
    assert payload["trivalent_rows"] == 0
    assert len(payload["rows"]) > 0
    for row in payload["rows"]:
        assert row["fold"] in (2, 3, 5)
        assert row["actual"] <= row["generic"]


def test_classify_is_deterministic_across_threads(capsys):
    argv = ["classify", "--config", "dodecahedron", "--axis", "5",
            "--scan", "a=1..2,b=0..1,c=1..1,max=30"]
    outputs = []
    for extra in ([], [], ["--threads", "3"]):
        assert cli.run(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_classify_bad_scan_spec(capsys):
    code = cli.run(["classify", "--config", "c60", "--scan", "a=zz"])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


# --- onion ----------------------------------------------------------------------

def test_onion_writes_family_and_shell_files(tmp_path, capsys):
    out = tmp_path / "family.json"
    code = cli.run(["onion", "--config", "c60", "--axis", "5",
                    "--length", "3", "--depth", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert [row["count"] for row in payload["family"]] == [60, 240]
    assert payload["formula"] == "60z^2"
    shell0 = (tmp_path / "family.shell0.xyz").read_text().splitlines()
    shell1 = (tmp_path / "family.shell1.xyz").read_text().splitlines()
    assert shell0[0] == "60"
    assert shell1[0] == "240"
    assert "depth=1" in shell1[1]


def test_onion_without_cage_fails(capsys):
    code = cli.run(["onion", "--config", "icosahedron", "--axis", "5",
                    "--length", "tau"])
    assert code == 3
    assert "trivalent" in capsys.readouterr().err


# --- verify -------------------------------------------------------------------------

def test_verify_single_check(capsys):
    code = cli.run(["verify", "--only", "pentagon"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == ["pentagon"]
    assert "PASS" in captured.err


def test_verify_unknown_check(capsys):
    code = cli.run(["verify", "--only", "nonsense"])
    assert code == 1
    assert "unknown check" in capsys.readouterr().err


# --- export --------------------------------------------------------------------------

def test_export_csv_parses_back(capsys):
    code = cli.run(["export", "--config", "dodecahedron", "--emit", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(read_csv(out)) == 20


def test_export_xyz_default(capsys):
    code = cli.run(["export", "--config", "icosahedron"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "12"
    assert out.splitlines()[1] == "start=icosahedron"


def test_export_extension_json(capsys):
    payload = run_json(capsys, [
        "export", "--config", "c60", "--axis", "5", "--length", "3",
        "--emit", "json",
    ])
    assert payload["cage"]["count"] == 240


def test_export_off_needs_cage(capsys):
    code = cli.run(["export", "--config", "icosahedron", "--emit", "off"])
    assert code == 3
    assert "no trivalent" in capsys.readouterr().err


# --- seed files -------------------------------------------------------------------

def test_seed_file_roundtrip(tmp_path, capsys):
    seed = tmp_path / "cap.txt"
    seed.write_text(GOOD_SEED, encoding="utf-8")
    payload = run_json(capsys, ["configs", "--config", str(seed)])
    assert payload["name"] == "cap"
    assert payload["vertices"] == 12


def test_bad_seed_file_is_a_parse_error(tmp_path, capsys):
    seed = tmp_path / "bad.txt"
    seed.write_text("0,1,taau\n", encoding="utf-8")
    code = cli.run(["configs", "--config", str(seed)])
    captured = capsys.readouterr()
    assert code == 2
    assert "taau" in captured.err


# --- exit codes and --out ---------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert cli.run([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_unknown_config_is_usage_error(capsys):
    code = cli.run(["extend", "--config", "nosuch", "--axis", "5",
                    "--length", "1"])
    assert code == 1
    assert "unknown configuration" in capsys.readouterr().err


def test_bad_axis_is_usage_error(capsys):
    code = cli.run(["extend", "--config", "c60", "--axis", "4",
                    "--length", "1"])
    assert code == 1


def test_non_positive_length_is_usage_error(capsys):
    code = cli.run(["extend", "--config", "c60", "--axis", "5",
                    "--length", "0"])
    assert code == 1
    assert "positive" in capsys.readouterr().err


def test_unparsable_length_is_parse_error(capsys):
    code = cli.run(["extend", "--config", "c60", "--axis", "5",
                    "--length", "(1/"])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_no_cage_exit_code(capsys):
    code = cli.run(["extend", "--config", "dodecahedron", "--axis", "2",
                    "--length", "tau", "--emit", "off"])
    assert code == 3
    capsys.readouterr()


def test_budget_exit_code(capsys):
    code = cli.run(["extend", "--config", "c60", "--axis", "5",
                    "--length", "3", "--depth", "8"])
    assert code == 4
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("axis,length,depth", [
    ("5", "3", "12"),  # the offsets pass the point cap at level 7 of 12
    ("2", "1", "4"),   # 235,700-point outer band: 1.8 TB of pair distances
])
def test_oversized_requests_exit_4_without_traceback(capsys, axis, length,
                                                     depth):
    code = cli.run(["extend", "--config", "c60", "--axis", axis,
                    "--length", length, "--depth", depth])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: ") and "Traceback" not in err


def test_depth_zero_is_usage_error(capsys):
    code = cli.run(["extend", "--config", "c60", "--axis", "5",
                    "--length", "3", "--depth", "0"])
    assert code == 1
    capsys.readouterr()


def test_threads_zero_is_usage_error(capsys):
    code = cli.run(["classify", "--config", "c60", "--threads", "0",
                    "--scan", "a=1..1,b=0..0,c=1..1,max=20"])
    assert code == 1
    capsys.readouterr()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        cli.run(["--help"])
    assert info.value.code == 0


def test_out_flag_redirects_stdout(tmp_path, capsys):
    out = tmp_path / "info.json"
    code = cli.run(["group-info", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert json.loads(out.read_text())["full_order"] == 120


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["extend", "--config", "c80", "--axis", "5", "--length", "2"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == first
