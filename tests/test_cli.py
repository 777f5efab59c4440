"""End-to-end command-line behavior: payloads, files, and exit codes."""

import hashlib
import json
import math
import time

import pytest

import group_reference as ref
from icofold import cages, cli, configs, engine, verify
from icofold.configs import builtin
from icofold.export import read_csv
from icofold.golden import parse_field_expr
from icofold.groups import PointGroup, full_group

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
    ])
    assert payload["start"] == "c60"
    assert payload["fold"] == 5
    assert payload["length"] == "3"
    assert payload["depth"] == 1
    assert payload["cage"]["count"] == 240
    assert payload["cage"]["faces"] == {"5": 12, "6": 110, "other": 0}


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
    # the scan runs on one thread; repeated runs give identical bytes
    argv = ["classify", "--config", "dodecahedron", "--axis", "5",
            "--scan", "a=1..2,b=0..1,c=1..1,max=30"]
    outputs = []
    for _ in range(2):
        assert cli.run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_threads_flag_is_unknown(capsys):
    code = cli.run(["classify", "--config", "c60", "--threads", "2",
                    "--scan", "a=1..1,b=0..0,c=1..1,max=20"])
    assert code == 1
    assert "--threads" in capsys.readouterr().err


def test_classify_bad_scan_spec(capsys):
    code = cli.run(["classify", "--config", "c60", "--scan", "a=zz"])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("scan", [
    "a=2..1,b=0..0,c=1..1,max=5",  # reversed range
    "a=2..1,b=0..0,c=2..1,max=5",  # and no denominator
    "a=-3..-1,b=0..0,c=1..1,max=5",  # a valid spec with no positive length
    "a=1..2,b=0..0,c=1..1,max=nan",
    "a=1..2,b=0..0,c=1..1,max=0",
    "a=1..2,b=0..0,c=1..1,max=-1",
])
def test_classify_empty_scan_exits_2_without_traceback(capsys, scan):
    code = cli.run(["classify", "--config", "dodecahedron", "--axis", "5",
                    "--scan", scan])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error: bad scan spec ")
    assert "Traceback" not in err


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


# sha256 of each member's XYZ file from `onion --depth 4 --out`, in
# member order
ONION_MEMBER_FILES = {
    ("c60", "3"): (
        "ee738ca570814496eea614502a4031010e8f6b7e92ed11631f35c28f021e1fbc",
        "3662ba16d47fd9fdb014e11418c815d455a00315c230009623dccbfc745040e8",
        "57984d8e98d4d8add13ebb07cce503dac3272ac88e5d4cf4d349ae4f1872a6ff",
        "282d7860528c665b486f840bbe6e5cbbfa4a40e5da57a4628a7c2a60a0dba8a4"),
    ("c80", "2"): (
        "86c5ab396f17846dc1664aff2a97acb58f36f4920c4eb596eff78f69c83938cd",
        "fc0e795bd3d1cb2f621d250036d7556b77719f04e3d81c75d073d45a68282199",
        "f3b3f52b2ad9244de5d6413020008277cfe731b4aac81a41874b6917667af96c",
        "f3cbccec6eaff86a28f354d2b1fe39e90b6ab091c2ca083686f098a741f4bc9b"),
}


@pytest.mark.parametrize("config,length", ONION_MEMBER_FILES)
def test_onion_member_files_are_pinned(tmp_path, capsys, config, length):
    out = tmp_path / "family.json"
    assert cli.run(["onion", "--config", config, "--axis", "5", "--length",
                    length, "--depth", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    digests = tuple(
        hashlib.sha256((tmp_path / f"family.shell{i}.xyz").read_bytes())
        .hexdigest() for i in range(4))
    assert digests == ONION_MEMBER_FILES[config, length]
    assert not (tmp_path / "family.shell4.xyz").exists()


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


def test_verify_with_a_failing_check_exits_1_and_delivers_json(
        monkeypatch, capsys):
    failing = verify.CheckResult("pentagon", "stubbed", False,
                                 ["FAIL: stubbed"], 0.0)
    monkeypatch.setattr(cli, "run_checks", lambda only=None: [failing])
    code = cli.run(["verify", "--only", "pentagon"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["passed"] is False
    assert [c["name"] for c in payload["checks"]] == ["pentagon"]
    assert "FAIL" in captured.err


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
    # The extension's JSON row, once `export --axis/--length`, is `extend --emit json`.
    payload = run_json(capsys, [
        "extend", "--config", "c60", "--axis", "5", "--length", "3",
        "--emit", "json",
    ])
    assert payload["cage"]["count"] == 240


def test_export_off_needs_cage(capsys):
    code = cli.run(["export", "--config", "icosahedron", "--emit", "off"])
    assert code == 3
    assert "no trivalent" in capsys.readouterr().err


def test_export_off_of_a_bond_graph_that_is_no_sphere_exits_3(tmp_path,
                                                              capsys):
    """A 120-point orbit that bonds trivalently into V - E + F = 0."""
    seed = tmp_path / "torus.txt"
    seed.write_text("@closure on\n(1+tau)/3,(-3+3*tau)/5,(2+2*tau)/5\n",
                    encoding="utf-8")
    code = cli.run(["export", "--config", str(seed), "--emit", "off"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: not a spherical cage; "
                            "V-E+F = 120-180+60 = 0, expected 2\n")


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


def test_undecodable_seed_file_is_a_parse_error(tmp_path, capsys):
    seed = tmp_path / "binary.txt"
    seed.write_bytes(b"\xff\xfe")
    code = cli.run(["configs", "--config", str(seed)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error: cannot read seed file: ")
    assert "Traceback" not in err


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
    ("2", "1", "4"),   # 235,700-point outer band: a 0.9 TB pair-distance bound
])
def test_oversized_requests_exit_4_without_traceback(capsys, axis, length,
                                                     depth):
    code = cli.run(["extend", "--config", "c60", "--axis", axis,
                    "--length", length, "--depth", depth])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: ") and "Traceback" not in err


def test_search_cap_exits_4_before_any_distance(capsys, monkeypatch):
    # the real cap lets point sets of up to 2896 points be searched
    assert math.isqrt(cages._PAIR_BYTES_CAP // 32) == 2896
    searches, distances = [], []
    search, pairwise = cages.trivalence_threshold_search, \
        cages._pairwise_squared

    def spy(*shells):
        searches.append(sum(len(shell) for shell in shells))
        return search(*shells)

    def pairwise_spy(a, b):
        distances.append(len(a) * len(b))
        return pairwise(a, b)

    monkeypatch.setattr(cages, "trivalence_threshold_search", spy)
    monkeypatch.setattr(cages, "_pairwise_squared", pairwise_spy)
    # the c60 fold-5 extension by 3 has a 240-point outer band
    argv = ["extend", "--config", "c60", "--axis", "5", "--length", "3"]
    monkeypatch.setattr(cages, "_PAIR_BYTES_CAP", 32 * 240 ** 2 - 1)
    start = builtin("c60")
    t = engine.make_translation(start.symmetry, 5, parse_field_expr("3"))
    with pytest.raises(engine.PointBudgetError) as raised:
        engine.classify_length(start, t, 1, with_cage=False)
    assert str(raised.value) == (
        f"bond search of 240 points needs {240 ** 2} pairwise distances, "
        f"over the limit of {240 ** 2 - 1}")
    assert cli.run(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: bond search of 240 points")
    assert searches == [240, 240] and distances == []
    # at the cap itself the band is searched
    monkeypatch.setattr(cages, "_PAIR_BYTES_CAP", 32 * 240 ** 2)
    searches.clear()
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert searches == [240] and distances


def test_closure_and_search_caps_exit_4_before_their_work(
        tmp_path, capsys, monkeypatch):
    # 25 generic seeds close to 3000 points, past the 2896 a search allows
    path = tmp_path / "generic.txt"
    path.write_text("@closure on\n" + "".join(
        f"{k + 1},{2 * k + 3},{3 * k + 7}\n" for k in range(25)))
    applied, distances, built = [], [], []
    apply, pairwise = PointGroup._apply, cages._pairwise_squared

    def apply_spy(self, den, rows, elements=slice(None)):
        applied.append(len(rows))
        return apply(self, den, rows, elements)

    def pairwise_spy(a, b):
        distances.append(len(a) * len(b))
        return pairwise(a, b)

    # the group's action table and fold-5 steps are built once per process,
    # from unit rows; build them now so the spies see only the seed file's
    group = full_group()
    group._action, group.translation_orbit(5)
    monkeypatch.setattr(PointGroup, "_apply", apply_spy)
    monkeypatch.setattr(cages, "_pairwise_squared", pairwise_spy)
    ref.spy_on_builders(monkeypatch, built)
    commands = (["configs", "--config", str(path)],
                ["export", "--config", str(path), "--emit", "json"],
                ["export", "--config", str(path), "--emit", "off"],
                ["onion", "--config", str(path), "--axis", "5",
                 "--length", "1"])
    monkeypatch.setattr(configs, "DEFAULT_POINT_CAP", 120 * 25 - 1)
    for argv in commands:
        assert cli.run(argv) == 4
        assert capsys.readouterr().err == (
            "error: closing 25 seeds makes 3000 points, over the cap of "
            "2999\n")
    assert applied == []
    monkeypatch.setattr(configs, "DEFAULT_POINT_CAP", 120 * 25)
    for argv in commands:
        assert cli.run(argv) == 4
        assert capsys.readouterr().err == (
            "error: bond search of 3000 points needs 9000000 pairwise "
            "distances, over the limit of 8388608\n")
    assert distances == [] and built == []


def test_bond_scale_caps_its_pairwise_work_before_taking_it(
        tmp_path, capsys, monkeypatch):
    """`--bond-scale` measures the shortest pairwise distance, so it is
    held to the bond search's cap: 3000 closed points exit 4 with the
    search's text before any point is built or distance taken, as
    `--emit off` does, and plain XYZ still exports them."""
    path = tmp_path / "generic.txt"
    path.write_text("@closure on\n" + "".join(
        f"{k + 1},{2 * k + 3},{3 * k + 7}\n" for k in range(25)))
    distances, built = [], []
    pairwise = cages._pairwise_squared
    monkeypatch.setattr(cages, "_pairwise_squared", lambda a, b: distances
                        .append(len(a) * len(b)) or pairwise(a, b))
    ref.spy_on_builders(monkeypatch, built)
    argv = ["export", "--config", str(path), "--emit", "xyz"]
    for extra in (["--bond-scale"], ["--emit", "off", "--bond-scale"]):
        assert cli.run(argv + extra) == 4
        assert capsys.readouterr().err == (
            "error: bond search of 3000 points needs 9000000 pairwise "
            "distances, over the limit of 8388608\n")
    assert distances == [] and built == []
    assert cli.run(argv) == 0
    assert capsys.readouterr().out.startswith("3000\n")
    # at the cap itself the distances are taken
    monkeypatch.setattr(cages, "_PAIR_BYTES_CAP", 32 * 3000 ** 2)
    assert cli.run(argv + ["--bond-scale"]) == 0
    capsys.readouterr()
    assert sum(distances) == 3000 ** 2


# --band-gap is gone from every command and export takes no translation
# (--axis/--length): any such argument is unrecognised, exit 1, no work
@pytest.mark.parametrize("gap", ["0", "0.5", "0.7", "-1", "nan"])
@pytest.mark.parametrize("command", [
    ["extend", "--axis", "5", "--length", "1"],
    ["classify", "--axis", "5", "--scan", "a=1..1,b=0..0,c=1..1"],
    ["export", "--axis", "5", "--length", "1"],
])
def test_band_gap_out_of_range_is_usage_error_before_any_work(
        capsys, monkeypatch, command, gap):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on unrecognised arguments")

    for name in ("generate_array", "classify_length", "classify_scan"):
        monkeypatch.setattr(cli, name, no_work)
    code = cli.run([command[0], "--config", "dodecahedron", *command[1:],
                    "--band-gap", gap])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    retired = [*(command[1:] if command[0] == "export" else []),
               "--band-gap", gap]
    assert captured.err == ("error: unrecognized arguments: "
                            + " ".join(retired) + "\n")


def test_huge_scan_grid_exits_4_before_enumerating(capsys):
    started = time.perf_counter()
    code = cli.run(["classify", "--config", "dodecahedron", "--axis", "5",
                    "--scan", "a=-100000000..100000000,b=0..0,c=1..1,max=0.5"])
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: scan grid of 200000001 lengths is too big")
    # a c range is checked before its denominators are listed
    started = time.perf_counter()
    code = cli.run(["classify", "--config", "dodecahedron", "--axis", "5",
                    "--scan", "c=1..1000000000000"])
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: scan grid of 195000000000000 lengths ")


def test_depth_zero_is_usage_error(capsys):
    code = cli.run(["extend", "--config", "c60", "--axis", "5",
                    "--length", "3", "--depth", "0"])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("length", [
    "tau^20000",   # refused by the grammar's power bound
    "tau^-20000",
    "tau^1400",    # parses, but lies outside 2^-32 <= |x| <= 2^32
    "10^400",
    "tau^-60",
    "(2^2000+1)/2^2000",  # close to 1, but its terms pass 256 bits
])
def test_out_of_range_length_exits_2_without_traceback(capsys, length):
    code = cli.run(["extend", "--config", "dodecahedron", "--axis", "5",
                    "--length", length])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["configs"],
    ["extend", "--axis", "5", "--length", "1"],
])
def test_out_of_range_seed_coordinate_exits_2_without_traceback(
        tmp_path, capsys, command):
    seed = tmp_path / "huge.txt"
    seed.write_text("@closure on\n0,1,tau^1400\n", encoding="utf-8")
    code = cli.run([command[0], "--config", str(seed), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert "huge.txt:2" in err and "Traceback" not in err


def test_long_pentagon_length_exits_2_without_traceback(capsys):
    code = cli.run(["pentagon", "--length", "(2^2000+1)/2^2000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error: ") and "Traceback" not in err


def test_long_seed_coordinate_exits_2_without_traceback(tmp_path, capsys):
    seed = tmp_path / "long.txt"
    seed.write_text("@closure on\n0,1,(2^2000+1)/2^2000\n",
                    encoding="utf-8")
    code = cli.run(["configs", "--config", str(seed)])
    err = capsys.readouterr().err
    assert code == 2
    assert "long.txt:2" in err and "Traceback" not in err


DEEP_LITERALS = pytest.mark.parametrize(
    "literal", ["(" * 300 + "1" + ")" * 300, "-" * 2000 + "1"],
    ids=["300-parentheses", "2000-minus-signs"])


@DEEP_LITERALS
def test_deeply_nested_length_exits_2_without_traceback(capsys, literal):
    # "--length=" so that argparse does not take a leading '-' for a flag
    code = cli.run(["extend", "--config", "dodecahedron", "--axis", "5",
                    f"--length={literal}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error: ") and "nesting deeper" in err
    assert "Traceback" not in err


@DEEP_LITERALS
def test_deeply_nested_seed_coordinate_exits_2_without_traceback(
        tmp_path, capsys, literal):
    seed = tmp_path / "deep.txt"
    seed.write_text(f"@closure on\n0,1,{literal}\n", encoding="utf-8")
    code = cli.run(["configs", "--config", str(seed)])
    err = capsys.readouterr().err
    assert code == 2
    assert "deep.txt:2" in err and "nesting deeper" in err
    assert "Traceback" not in err


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


def test_out_into_missing_directory_exits_1_without_traceback(tmp_path,
                                                               capsys):
    out = tmp_path / "no" / "such" / "info.json"
    code = cli.run(["group-info", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: cannot write {out}: "
                            "No such file or directory\n")


def test_onion_shell_file_that_cannot_be_written_exits_1(tmp_path, capsys):
    # a directory blocks the shell-1 file after the report and shell 0 are
    # written; those two are removed again, so the failure leaves nothing
    blocked = tmp_path / "family.shell1.xyz"
    blocked.mkdir()
    code = cli.run(["onion", "--config", "c60", "--axis", "5",
                    "--length", "3", "--depth", "1",
                    "--out", str(tmp_path / "family.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {blocked}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "family.json").exists()
    assert not (tmp_path / "family.shell0.xyz").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["family.shell1.xyz"]


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["extend", "--config", "c80", "--axis", "5", "--length", "2"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == first


# --- stdout bytes -------------------------------------------------------------------

# sha256 of stdout.  The json/xyz/off, group-info, configs, classify and
# onion digests were recorded before 3D points became golden vectors and
# are unchanged by it.  The csv digests were recorded after: since then a
# 3D CSV header always reads "# radicand: 1" (before, fold-3 and fold-5
# extensions said "3" and "2+tau"; every cell was already radical-free).
PINNED_STDOUT = [
    (["group-info"],
     "2a4974a70c8f4e51ff58b358edfb6d29412eb2b9cfe659b9382685f7788c46dc"),
    (["configs"],
     "8b29444ea9761c5edbc6f4f590d3e5bd8f8c8a33e499629da22d7b6ba48cebe1"),
    (["extend", "--config", "c60", "--axis", "5", "--length", "3",
      "--emit", "json"],
     "c04a0f7dcadada3048c5889948fd0a70f9d8b219d62284eb8cceb40033ef8e80"),
    (["extend", "--config", "c60", "--axis", "5", "--length", "3",
      "--emit", "xyz"],
     "e29bdf3177951756d9e8e0c34301269e30ce5ed938e559fc7a61c965c035c0dd"),
    (["extend", "--config", "c60", "--axis", "5", "--length", "3",
      "--emit", "off"],
     "bb826e42ebdb2ad06eb474122d0e568b2975c75f97a1303391804f9be38bb10e"),
    (["extend", "--config", "c60", "--axis", "5", "--length", "3",
      "--emit", "csv"],
     "2eb2de0e53b3f7fd95dcf4d8b93317887d8fd25af74bbd832f2b723320e462d3"),
    (["extend", "--config", "dodecahedron", "--axis", "3", "--length",
      "tau^2", "--emit", "json"],
     "b4d62035d0c18868504badee30e2ce2cf36ea714436cd1e086f200d5c0ddc861"),
    (["extend", "--config", "dodecahedron", "--axis", "3", "--length",
      "tau^2", "--emit", "xyz"],
     "f6604936880acf66b2a24d0539d8b336f7e6593bf88abaa820bdd152193f2fdf"),
    (["extend", "--config", "dodecahedron", "--axis", "3", "--length",
      "tau^2", "--emit", "off"],
     "d8c946ec95a55066a5464edc68cba4236671bb897016bc384b40ed4623eb5df5"),
    (["extend", "--config", "dodecahedron", "--axis", "3", "--length",
      "tau^2", "--emit", "csv"],
     "424f9006443491ed0754e5531852df59f785c9483d9c0f0058d7334d05ad3452"),
    (["classify", "--config", "dodecahedron", "--axis", "5",
      "--scan", "a=1..2,b=0..1,c=1..1,max=30"],
     "d1b8963c5261b3ad8e286468c461b0086d92f33ba79ff2708da4571c5303b809"),
    # the default scans: every outer band refuted, or bonded trivalently
    (["classify", "--config", "icosidodecahedron"],
     "0e728a8f18eb2c0e494a6c19dd82500d9b11da2991394a01ccebb01a7258e054"),
    (["classify", "--config", "dodecahedron"],
     "29242e6ab9f1f9ffc1912835cca6942f7b013b963d9084010b4a8963ec87f5df"),
    (["onion", "--config", "c80", "--axis", "5", "--length", "2",
      "--depth", "2"],
     "26cf7f8b709dd8448661f7e5802d8f7d05efe0ee5dd607d8991083f5b6b8c614"),
    # both families to the member that does not close
    (["onion", "--config", "c60", "--axis", "5", "--length", "3",
      "--depth", "4"],
     "bf942305895f128cf8533a42fdd745383746353978edc98cdf131acb0de13c49"),
    (["onion", "--config", "c80", "--axis", "5", "--length", "2",
      "--depth", "4"],
     "387a2c4d407d0491d89658166475828e8a01840dbbcb4707311217d56a652867"),
    # two-bond-length families, whose last member drops a shell
    (["onion", "--config", "c60", "--axis", "5", "--length", "(1+6*tau)/4",
      "--depth", "4"],
     "3fcfeb4ac675595edf760d392032ba6e9b12b88900564c281654f7028ad05895"),
    (["onion", "--config", "dodecahedron", "--axis", "5", "--length",
      "(-1+5*tau)/5", "--depth", "4"],
     "aeb1dc17c31bcc0941409330721f0293588afb0d4288230358dba7605424fb21"),
    # single-shell threshold search edges and the depth-1 catalog findings
    (["export", "--config", "c80", "--emit", "off"],
     "8cb9a234e1a93dcf7f6504428d1a16011bf3c39db83bf2a5785c64bb9eb2d01c"),
    (["export", "--config", "dodecahedron", "--emit", "off"],
     "1d15d7d6dd641519ba753538a3c9576f93542d4a9aadd1351e82695f98dde8a2"),
    (["verify", "--only", "shells"],
     "4d8276a202dbef411a2c331e00a1d78141ec7dbbd3d8aa00f0072893e71089e7"),
    # the plane pentagon, whose x coordinates carry sqrt(2+tau)
    (["pentagon"],
     "0173fc0e8382a510bb5545050f100f4f5287ea2d7443cef7c3336a9aa73f6b4d"),
    (["pentagon", "--length", "1", "--emit", "csv"],
     "2abbfb1a2192755fd9b8cb8d3e1bcf8fec3b0d9c055ab5c61e547c496cc78d0b"),
    (["pentagon", "--length", "tau", "--direction", "edge", "--emit", "csv"],
     "b3e9455c9036cdab26a4236fa408a9250cddeb07f2f2e6afa9003eae946397c9"),
    (["verify", "--only", "pentagon"],
     "ddfdc2216b439742cd4ebe4c6b2121242a452f7f204f892b997a86ee9ca5bc36"),
    (["verify", "--only", "properties"],
     "49b229102446f040d2032d1b4cd446baf7d5cc555bbc462d29ceda4af839369e"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_STDOUT])
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
