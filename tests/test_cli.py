import json
from pathlib import Path

import pytest

from bpuverify import cli
from bpuverify.report import VerificationReport, serialize, strip_elapsed

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
