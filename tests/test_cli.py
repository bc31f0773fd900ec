import csv
import hashlib
import io
import json
import os
import shlex
from pathlib import Path

import pytest

from qtcat import cycles, kernels, verify
from qtcat.bijections import BoundedPartition
from qtcat.cli import _report_json, main

DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_slope(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--slope", "5/3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["steps", "area", "degr", "dinv", "maximal"]
    assert len(lines) == 8  # header + 7 paths


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "enumerate", "--slope", "5/3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 7
    assert {r["maximal"] for r in rows} == {"True", "False"}
    for r in rows:
        assert int(r["area"]) + int(r["degr"]) + int(r["dinv"]) == 4


def test_enumerate_ellm_bounded(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "enumerate", "--ellm", "4,3", "--max-degr", "5"
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["degr"] <= 5 for r in rows)
    assert len(rows) > 0


# whole outputs of `enumerate --ellm 4,3`, captured when the listing still
# came from filtering every path of the plain generator
@pytest.mark.parametrize("impl", ["python", "c"], indirect=True)
@pytest.mark.parametrize(
    "argv,name",
    [
        (["enumerate", "--ellm", "4,3"], "enumerate_4_3.txt"),
        (["--format", "csv", "enumerate", "--ellm", "4,3", "--max-degr", "5"],
         "enumerate_4_3_max5.csv"),
        (["--format", "json", "enumerate", "--ellm", "4,3", "--max-degr", "0"],
         "enumerate_4_3_max0.json"),
        (["enumerate", "--ellm", "4,3", "--max-degr", "-1"], "enumerate_4_3_max-1.txt"),
    ],
    ids=["plain", "csv-max-5", "json-max-0", "max-below-0"],
)
def test_enumerate_ellm_matches_pinned_output(capsys, monkeypatch, impl, argv, name):
    monkeypatch.setattr(kernels, "_impl", impl)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    # bytes, so the csv writer's \r\n line ends are compared as they are
    assert out == (DATA / name).read_bytes().decode()


# SHA-256 of larger `enumerate --ellm` outputs, captured when every row was
# rebuilt as a path record and scored again with paths.stats after the walk
ENUMERATE_ELLM_SHA256 = {
    # 7,084 rows, 187,330 bytes
    "5,3": "af6cc4df4b6c3478e5b6527cd9a9d9ba9257f17786acb8b2b8b11e0a7d6c8b5d",
    # 327 rows, 9,304 bytes
    "6,4 max-2": "63e4e8d4ef50cfeb8e22ad638d59cb616d38131cecaa7e9dfa790fe16065c20c",
    # 7,084 rows, 208,583 bytes
    "5,3 csv": "eea4fb87923792ee4e007e172f7e0a7da7d335556108ce7af45ac1c082f109bc",
}


@pytest.mark.parametrize("impl", ["python", "c"], indirect=True)
@pytest.mark.parametrize(
    "argv,name",
    [
        (["enumerate", "--ellm", "5,3"], "5,3"),
        (["enumerate", "--ellm", "6,4", "--max-degr", "2"], "6,4 max-2"),
        (["--format", "csv", "enumerate", "--ellm", "5,3"], "5,3 csv"),
    ],
    ids=["5-3", "6-4-max-2", "5-3-csv"],
)
def test_enumerate_ellm_matches_golden_digest(capsys, monkeypatch, impl, argv, name):
    monkeypatch.setattr(kernels, "_impl", impl)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_ELLM_SHA256[name]


def test_enumerate_slope_and_ellm_exits_2(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--slope", "5/3", "--ellm", "2,2")
    assert (code, out) == (2, "")
    assert "not both" in err


def test_enumerate_non_coprime_exits_2(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--slope", "6/3")
    assert code == 2
    assert "coprime" in err


def test_enumerate_requires_universe(capsys):
    code, _, _ = run_cli(capsys, "enumerate")
    assert code == 2


def test_poly_5_3(capsys):
    code, out, _ = run_cli(capsys, "poly", "--slope", "5/3")
    assert code == 0
    assert (
        out.strip()
        == "q^0*t^4 + q^1*t^2 + q^1*t^3 + q^2*t^1 + q^2*t^2 + q^3*t^1 + q^4*t^0"
    )


def test_poly_slice_json(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "poly", "--slope", "13/8", "--d", "19"
    )
    assert code == 0
    terms = json.loads(out)
    assert [t["c"] for t in terms] == [1, 3, 6, 8, 8, 6, 3, 1]
    qs = [t["q"] for t in terms]
    assert qs == sorted(qs)


def test_poly_empty_slice(capsys):
    code, out, _ = run_cli(capsys, "poly", "--slope", "5/3", "--d", "99")
    assert code == 0
    assert out.strip() == "0"


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--slope", "13/8")
    assert code == 0
    assert "verdict: pass" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--slope", "5/3")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "pass"
    assert obj["counts"]["paths"] == 7


def _failing_report(all_counts):
    # no slope is known to fail, so a made-up census stands in for a failing
    # check: its keys have degree 0 at M = 2, so the sides differ at d = 0
    # only, and the right side is sym(0, 2) = t^2 + q t + q^2
    census = all_counts, {(0, 0): 1}, 2
    lhs, rhs = verify._slices_from_census(*census)
    return verify.VerificationReport(
        params={"n": 3, "s": 2},
        verdict=False,
        witness={"d": 0, "difference": (lhs - rhs).to_obj()},
        counts={"paths": 3, "runtime": 0.25},
        detail={"census": census},
    )


REPORTS = {
    "verify-17-12": lambda: verify.check_conjecture(17, 12),
    "verify-5-3": lambda: verify.check_conjecture(5, 3),
    "verify-1-1": lambda: verify.check_conjecture(1, 1),
    # a negative coefficient and two past int64
    "failing": lambda: _failing_report({(0, 0): -3, (0, 1): 2**63, (0, 2): 10**30}),
    "empty-lhs": lambda: _failing_report({}),
    "basecase": lambda: verify.basecase(range(1, 4), 5),
    "strings": lambda: verify.verify_string_partition(5, 3, 7),
    # lhs and rhs are None
    "projection": lambda: verify.verify_projection(BoundedPartition((4, 2, 1), 4), 3),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_json_report_renderer_equals_json_dumps(request, monkeypatch, name):
    if name == "verify-17-12":
        # on C; the pure-Python census of 17/12 runs in the digest test below
        monkeypatch.setattr(kernels, "_impl", request.getfixturevalue("speedups"))
    report = REPORTS[name]()
    assert _report_json(report) == json.dumps(report.to_obj(), indent=2) + "\n"
    if name == "failing":
        lhs, _ = report.sides()
        assert lhs.terms() == [((0, 2), -3), ((1, 1), 2**63), ((2, 0), 10**30)]


@pytest.mark.parametrize("impl", ["python", "c"], indirect=True)
def test_sides_are_assembled_only_for_json(capsys, monkeypatch, impl):
    # check_conjecture, plain and csv verify assemble no side; json verify
    # assembles both once, when it prints them
    monkeypatch.setattr(kernels, "_impl", impl)
    calls = []
    assemble = verify._slices_from_census

    def counting(*census):
        calls.append(census[2])
        return assemble(*census)

    monkeypatch.setattr(verify, "_slices_from_census", counting)
    report = verify.check_conjecture(13, 8)
    assert report.detail["census"][2] == 42 and calls == []
    for fmt in ("plain", "csv"):
        assert run_cli(capsys, "--format", fmt, "verify", "--slope", "13/8")[0] == 0
    assert calls == []
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--slope", "13/8")
    assert code == 0 and calls == [42]
    assert json.loads(out)["lhs"] == report.sides()[0].to_obj()


# SHA-256 of the stdout of `--format json verify --slope 17/12` with runtime
# 0.0, as json.dumps(report.to_obj(), indent=2) wrote it before the template
# renderer: 307,105 bytes
VERIFY_17_12_JSON_SHA256 = "3e5a1c5106fb8eac399b0e1180e3a9a3443e1caacb6e4d0674bb306693492c5e"


@pytest.mark.parametrize("impl", ["python", "c"], indirect=True)
def test_verify_17_12_json_matches_golden_digest(capsys, monkeypatch, kernels_on_impl):
    monkeypatch.setattr(verify.time, "perf_counter", lambda: 0.0)
    code, out, err = run_cli(capsys, "--format", "json", "verify", "--slope", "17/12")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_17_12_JSON_SHA256


def test_basecase_small(capsys):
    code, out, _ = run_cli(capsys, "basecase", "--dstar", "3", "--m-max", "3")
    assert code == 0
    assert "verdict: pass" in out


def test_strings_command(capsys):
    code, out, _ = run_cli(capsys, "strings", "--ellm", "4,3", "--d", "5")
    assert code == 0
    assert out.count("string ") == 5
    assert "disconnected (6):" in out
    # the whole listing, disconnected paths in walk order
    assert out == (DATA / "strings_4_3_5.txt").read_text()


# SHA-256 of the whole plain output of `strings --ellm 6,4 --d 10` (the
# perfbench strings workload), made by the unpruned walk that enumerated every
# (6,4)-path and kept those of degree 10: 30 strings, 1,934 paths
STRINGS_6_4_10_SHA256 = "60bcb5f491d80a9b0ebe1447ecf1d56ecc7730c768ebf1617a48c4dd63d60b39"


@pytest.mark.parametrize("impl", ["python", "c"], indirect=True)
def test_strings_at_benchmark_scale_match_golden_digest(capsys, monkeypatch, impl):
    monkeypatch.setattr(kernels, "_impl", impl)
    code, out, _ = run_cli(capsys, "strings", "--ellm", "6,4", "--d", "10")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STRINGS_6_4_10_SHA256


# `strings --ellm 2,4 --d 2` with a broken string: the string of [1, 1] runs
# on into the first two paths of the degree-1 string [1], which the walk at
# degree 2 never listed; a failing check prints every path with the degree
# scored from its positions, so those two print degree 1
STRINGS_2_4_2_OFF_DEGREE = """\
string [1, 1]:
  4,2,6  area=2, degr=2
  1,7,4  area=3, degr=2
  3,2,7  area=4, degr=2
  0,7,5  area=5, degr=2
  2,2,8  area=6, degr=2
  2,1,9  area=7, degr=2
  2,0,10  area=8, degr=2
  4,3,5  area=1, degr=1
  2,6,4  area=2, degr=1
disconnected (0):
verdict: fail
"""


@pytest.mark.parametrize("impl", ["python", "c"], indirect=True)
def test_failing_strings_check_prints_true_degree(capsys, monkeypatch, impl):
    monkeypatch.setattr(kernels, "_impl", impl)
    string_of = cycles.string_of

    def string_with_extra(lam, m):
        lower = BoundedPartition(lam.parts[1:], lam.bound)
        return string_of(lam, m) + string_of(lower, m)[:2]

    monkeypatch.setattr(cycles, "string_of", string_with_extra)
    code, out, err = run_cli(capsys, "strings", "--ellm", "2,4", "--d", "2")
    assert (code, out, err) == (1, STRINGS_2_4_2_OFF_DEGREE, "")


def test_strings_bad_degree(capsys):
    code, _, _ = run_cli(capsys, "strings", "--ellm", "4,3", "--d", "99")
    assert code == 2


def test_projection_command(capsys):
    code, out, _ = run_cli(
        capsys, "projection", "--partition", "4,2,1", "--ell", "5", "--m", "3"
    )
    assert code == 0
    assert "verdict: pass" in out


def test_projection_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "projection", "--partition", "3,3", "--ell", "4", "--m", "2"
    )
    assert code == 2


def test_stats_step_form(capsys):
    code, out, _ = run_cli(capsys, "stats", "--path", "1,3,0,2,2,4", "--m", "2")
    assert code == 0
    assert "area: 7" in out and "degr: 9" in out


def test_stats_position_form(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "stats", "--path", "pos:0,1,0,2,2,2", "--m", "2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["area"] == 7 and obj["degr"] == 9 and obj["steps"] == "1,3,0,2,2,4"


def test_stats_rational(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "stats", "--path", "2,2,2,2,3", "--slope", "11/5"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["area"] == 0 and obj["M"] == 20


def test_stats_m_zero_exits_2_on_the_path_rule(capsys):
    code, out, err = run_cli(capsys, "stats", "--path", "1,2", "--m", "0")
    assert (code, out) == (2, "")
    assert "m >= 1" in err


def test_stats_rejects_slope_with_m(capsys):
    # neither flag wins silently: the path is not read at all
    code, out, err = run_cli(capsys, "stats", "--path", "1,1", "--m", "1", "--slope", "2/1")
    assert (code, out) == (2, "")
    assert err == "error: stats takes --slope or --m, not both\n"


def test_stats_invalid_path(capsys):
    code, _, _ = run_cli(capsys, "stats", "--path", "9,9,9", "--m", "1")
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    code, out, _ = run_cli(capsys, "--out", str(target), "poly", "--slope", "5/3")
    assert code == 0
    assert out == ""
    assert "q^0*t^4" in target.read_text()


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "--format", "csv", "enumerate", "--slope", "7/5")
    _, out2, _ = run_cli(capsys, "--format", "csv", "enumerate", "--slope", "7/5")
    assert out1 == out2


def test_basecase_jobs_match(capsys):
    _, out1, _ = run_cli(capsys, "--format", "json", "basecase", "--dstar", "3", "--m-max", "2")
    _, out2, _ = run_cli(
        capsys, "--format", "json", "--jobs", "2", "basecase", "--dstar", "3", "--m-max", "2"
    )
    o1, o2 = json.loads(out1), json.loads(out2)
    # runtimes differ; verdicts and parameters must not
    for o in (o1, o2):
        for section in o["counts"].values():
            for cell in section:
                cell.pop("runtime", None)
    assert o1 == o2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_jobs_below_one_exits_2(capsys):
    code, _, err = run_cli(capsys, "--jobs", "0", "basecase", "--dstar", "3", "--m-max", "2")
    assert code == 2
    assert "--jobs" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(n, s):
        raise ValueError("internal fault")

    monkeypatch.setattr(verify, "check_conjecture", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["verify", "--slope", "5/3"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--slope", "1000000000000000000000001/2"],
        ["poly", "--slope", "1000000000000000000000001/2", "--d", "3"],
        ["verify", "--slope", "1/2147483647"],
        ["basecase", "--dstar", "1000000000000000000000000", "--m-max", "2"],
        ["basecase", "--dstar", "3", "--m-max", "1000000000000000000000000"],
        ["strings", "--ellm", "2000,1", "--d", "3"],
        ["enumerate", "--slope", "1/2147483647"],
        ["enumerate", "--ellm", "2000,1"],
    ],
    ids=[
        "verify", "poly", "verify-deep", "basecase-dstar", "basecase-m-max",
        "strings", "enumerate-slope", "enumerate-ellm",
    ],
)
def test_input_beyond_kernel_limits_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and ("too large" in err or "2**63" in err)


# numeric rules the command line leaves to the library: the kernels' slope
# and (ell, m) checks and qtcat.verify's degree, m-range and size checks
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--slope", "6/3"],
        ["poly", "--slope", "0/1"],
        ["verify", "--slope", "4/2"],
        ["poly", "--slope", "5/3", "--d", "-1"],
        ["enumerate", "--ellm", "0,3"],
        ["strings", "--ellm", "4,3", "--d", "9"],
        ["strings", "--ellm", "4,3", "--d", "-1"],
        ["basecase", "--dstar", "-1"],
        ["basecase", "--m-max", "0"],
        ["projection", "--partition", "3,3", "--ell", "4", "--m", "3"],
    ],
    ids=[
        "enumerate-not-coprime", "poly-slope-zero", "verify-not-coprime",
        "poly-d-negative", "enumerate-ell-zero", "strings-d-too-large",
        "strings-d-negative", "basecase-dstar-negative", "basecase-no-m",
        "projection-too-large",
    ],
)
def test_input_rules_owned_by_the_library_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_out_into_missing_directory_exits_2_before_any_walk(tmp_path, capsys, monkeypatch):
    def walk(n, s):
        raise AssertionError("verify ran for %d/%d" % (n, s))

    monkeypatch.setattr(verify, "check_conjecture", walk)
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "--out", str(target), "verify", "--slope", "5/3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def test_out_into_a_directory_exits_2_before_any_walk(tmp_path, capsys, monkeypatch):
    def walk(n, s):
        raise AssertionError("verify ran for %d/%d" % (n, s))

    monkeypatch.setattr(verify, "check_conjecture", walk)
    code, out, err = run_cli(capsys, "--out", str(tmp_path), "verify", "--slope", "5/3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_rejected_command_leaves_the_out_file_as_it_was(tmp_path, capsys):
    # 6/3 is not coprime, so verify exits 2 before it writes a line
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("earlier output\n")
    for target in (kept, fresh):
        code, out, err = run_cli(capsys, "--out", str(target), "verify", "--slope", "6/3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
    assert kept.read_text() == "earlier output\n"
    assert not fresh.exists()


def test_out_file_is_replaced_when_written(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    target.write_text("a much longer earlier output than the polynomial\n" * 50)
    code, _, _ = run_cli(capsys, "--out", str(target), "poly", "--slope", "5/3")
    assert code == 0
    _, out, _ = run_cli(capsys, "poly", "--slope", "5/3")
    assert target.read_text() == out
    # a device takes the output as a file does
    code, out, _ = run_cli(capsys, "--out", os.devnull, "poly", "--slope", "5/3")
    assert code == 0 and out == ""


def test_census_too_large_exits_2_before_any_walk(capsys, monkeypatch):
    # 10001/3 is inside the int64 and depth limits, but each of its
    # 16,675,001 paths has its own (degr, area) key; the walk must not start
    def walk(n, s):
        raise AssertionError("census walk started for %d/%d" % (n, s))

    monkeypatch.setattr(kernels._impl, "rational_census", walk)
    code, out, err = run_cli(capsys, "verify", "--slope", "10001/3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "too large" in err


def test_readme_command_line_examples_run(capsys, monkeypatch, speedups):
    # every `qtcat ...` line of README's "Command line" code block, on C:
    # verify --slope 17/12 and basecase --dstar 20 take minutes on pure Python
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("qtcat ")]
    assert len(lines) >= 10
    monkeypatch.setattr(kernels, "_impl", speedups)
    for line in lines:
        code, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert (code, err) == (0, ""), line
        assert out, line
