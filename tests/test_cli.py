import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bpuverify import cli
from bpuverify.report import VerificationReport, serialize, strip_elapsed

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_fast_suites_exit_zero(capsys):
    for argv in (
        ["spectral"],
        ["vistoli"],
        ["coker", "--max-degree", "10"],
        ["section10", "--max-degree", "16"],
        ["dga", "--max-degree", "20"],
    ):
        code, out = run_cli(argv, capsys)
        assert code == 0, (argv, out)
        assert out.startswith("suite ")


def test_k4_exits_one_on_the_documented_lattice_defect(capsys):
    code, out = run_cli(["k4", "--max-degree", "8"], capsys)
    assert code == 1
    assert "fail lattice/d04" in out
    assert "finding three-primary-defect" in out


def test_unknown_suite_exits_two(capsys):
    assert cli.main(["bogus"]) == 2
    capsys.readouterr()


def test_bounds_below_one_are_usage_errors(capsys):
    for argv in (
        ["section10", "--max-degree", "0"],
        ["k4", "--max-degree", "0"],
        ["vistoli", "--prime", "0"],
        ["coker", "--max-degree", "-3"],
        ["dga", "--max-degree", "-1"],
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "", argv
        assert captured.err.startswith("usage:"), (argv, captured.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["k4", "--max-degree", "1"],
        ["all", "--max-degree", "1"],
        ["vistoli", "--prime", "1"],
        ["vistoli", "--prime", "2"],
        ["vistoli", "--prime", "4"],
        ["vistoli", "--prime", "9"],
        ["all", "--prime", "9"],
        ["vistoli", "--prime", "three"],
        ["spectral", "--prime", "7"],
        ["steenrod", "--max-degree", "5"],
        ["coker", "--prime", "5"],
        ["bpu2", "--max-degree", "3"],
        ["section10", "--prime", "3"],
        ["dga", "--prime", "3"],
        ["k4", "--prime", "3"],
        ["vistoli", "--max-degree", "4"],
    ],
    ids="_".join,
)
def test_options_a_suite_cannot_use_are_usage_errors(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage:"), captured.err


SMALLEST_BOUNDS = (
    ["k4", "--max-degree", "2"],
    ["coker", "--max-degree", "1"],
    ["vistoli"],
    ["steenrod"],
    ["bpu2"],
    ["section10", "--max-degree", "1"],
    ["dga", "--max-degree", "1"],
    ["spectral"],
)


def test_smallest_bounds_cover_every_suite():
    assert [argv[0] for argv in SMALLEST_BOUNDS] == [name for name, _ in cli.SUITES]


@pytest.mark.parametrize("argv", SMALLEST_BOUNDS, ids=lambda argv: argv[0])
def test_no_suite_passes_vacuously(argv, capsys):
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0, argv
    statuses = [check["status"] for check in json.loads(out)["checks"]]
    assert any(s in ("pass", "fail") for s in statuses), argv


def _src_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@pytest.mark.parametrize(
    "argv",
    [["coker", "--max-degree", "6"], ["dga", "--max-degree", "8"]],
    ids=lambda argv: argv[0],
)
def test_trace_mode_matches_the_plain_cli(argv):
    """perfbench/traced_cli.py patches entry points by name and raises if one
    is missing; its report and exit code must equal the plain CLI's."""
    env = _src_env()
    plain = subprocess.run(
        [sys.executable, "-m", "bpuverify.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    read_fd, write_fd = os.pipe()
    try:
        # the span summary is about two kilobytes, well inside the pipe buffer
        traced = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(write_fd), *argv],
            capture_output=True, text=True, env=env, pass_fds=(write_fd,),
        )
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        spans = json.load(fh)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert strip_elapsed(traced.stdout) == strip_elapsed(plain.stdout)
    assert "cli.run_suite" in spans


def test_internal_error_exits_two(capsys, monkeypatch):
    def boom(opts):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "SUITES", (("spectral", boom),))
    code, _ = run_cli(["spectral"], capsys)
    assert code == 2


def test_injected_failing_fixture_exits_one(capsys, monkeypatch):
    def failing(opts):
        report = VerificationReport("fixture")
        report.add("always-fails", False, "injected failing check")
        return report

    monkeypatch.setattr(cli, "SUITES", (("spectral", failing),))
    code, out = run_cli(["spectral"], capsys)
    assert code == 1
    assert "fail always-fails" in out


def test_findings_do_not_fail_a_run(capsys, monkeypatch):
    def finding_only(opts):
        report = VerificationReport("fixture")
        report.add("ok", True, "fine")
        report.finding("note", "documented discrepancy")
        return report

    monkeypatch.setattr(cli, "SUITES", (("spectral", finding_only),))
    code, out = run_cli(["spectral"], capsys)
    assert code == 0
    assert "finding note" in out


def test_json_schema(capsys):
    code, out = run_cli(["vistoli", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc.keys()) == {"suite", "checks", "elapsed_ms"}
    assert doc["suite"] == "vistoli"
    for check in doc["checks"]:
        assert set(check.keys()) == {"name", "status", "detail", "witness"}
        assert check["status"] in ("pass", "fail", "finding")
    assert isinstance(doc["elapsed_ms"], int)


def test_json_all_is_one_object_per_suite(capsys):
    code, out = run_cli(
        ["all", "--max-degree", "8", "--format", "json"], capsys
    )
    assert code == 1  # the k4 lattice defect propagates
    doc = json.loads(out)
    assert [entry["suite"] for entry in doc] == [name for name, _ in cli.SUITES]


def test_reports_are_deterministic(capsys):
    _, first = run_cli(["spectral"], capsys)
    _, second = run_cli(["spectral"], capsys)
    assert strip_elapsed(first) == strip_elapsed(second)


def test_golden_reports(capsys):
    for argv, fixture in (
        (["spectral"], "spectral.txt"),
        (["coker", "--max-degree", "12"], "coker.txt"),
        (["vistoli", "--format", "json"], "vistoli.json"),
        (["steenrod"], "steenrod.txt"),
        (["bpu2"], "bpu2.txt"),
        (["dga", "--max-degree", "20"], "dga.txt"),
        (["section10", "--max-degree", "16"], "section10.txt"),
        (["k4", "--max-degree", "8"], "k4.txt"),
        (["vistoli", "--prime", "5"], "vistoli5.txt"),
    ):
        _, out = run_cli(argv, capsys)
        golden = (FIXTURES / "golden" / fixture).read_text()
        assert strip_elapsed(out) == strip_elapsed(golden), argv


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out = run_cli(["vistoli", "--out", str(target)], capsys)
    assert code == 0
    assert target.read_text() == out


def test_serialize_empty_report():
    empty = VerificationReport("empty")
    doc = json.loads(serialize(empty, "json"))
    assert doc == {"suite": "empty", "checks": [], "elapsed_ms": 0}
    text = serialize(empty, "text")
    assert text == "suite empty\nelapsed_ms 0\n"
    with pytest.raises(ValueError):
        serialize(empty, "yaml")
