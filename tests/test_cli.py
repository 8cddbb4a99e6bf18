import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bpuverify import cli
from bpuverify.report import Check, VerificationReport, serialize, strip_elapsed

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


@pytest.mark.parametrize("prime", ["11", "13"])
def test_vistoli_primes_past_7_run(prime, capsys):
    """The power-sum route reaches primes whose expansions of V and delta
    would outgrow memory."""
    code, out = run_cli(["vistoli", "--prime", prime], capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:7]] == ["pass"] * 6


def test_vistoli_primes_above_the_bound_are_usage_errors(capsys, monkeypatch):
    """Refused before any suite runs: past the bound the power sums outgrow
    the stated time and memory."""
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    assert cli.main(["vistoli", "--prime", "29"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:"), captured.err
    assert "odd primes up to 23, got 29" in captured.err
    assert ran == []


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
    "argv, code",
    [
        (["coker", "--max-degree", "6"], 0),
        (["dga", "--max-degree", "8"], 0),
        (["vistoli"], 0),
        (["section10", "--max-degree", "12"], 0),
        # exit 1: the lattice fails at degrees 4, 6, 7 and 8 by design
        (["k4", "--max-degree", "8"], 1),
    ],
    ids=["coker", "dga", "vistoli", "section10", "k4"],
)
def test_trace_mode_matches_the_plain_cli(argv, code):
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
    assert traced.returncode == plain.returncode == code, traced.stderr
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


GOLDEN_REPORTS = (
    (["spectral"], "spectral.txt"),
    (["coker", "--max-degree", "12"], "coker.txt"),
    (["vistoli", "--format", "json"], "vistoli.json"),
    (["steenrod"], "steenrod.txt"),
    (["bpu2"], "bpu2.txt"),
    (["dga", "--max-degree", "20"], "dga.txt"),
    (["dga", "--max-degree", "54"], "dga_54.txt"),
    (["section10", "--max-degree", "16"], "section10.txt"),
    (["k4", "--max-degree", "8"], "k4.txt"),
    (["vistoli", "--prime", "5"], "vistoli5.txt"),
    (["vistoli", "--prime", "7"], "vistoli7.txt"),
    (["k4", "--max-degree", "20"], "k4_20.txt"),
    (["section10", "--max-degree", "40"], "section10_40.txt"),
    (["section10", "--max-degree", "80"], "section10_80.txt"),
    (["coker", "--max-degree", "24"], "coker_24.txt"),
    (["k4", "--max-degree", "32"], "k4_32.txt"),
    (["coker", "--max-degree", "40"], "coker_40.txt"),
    (["k4", "--max-degree", "40"], "k4_40.txt"),
    (["k4", "--max-degree", "52"], "k4_52.txt"),
)


@pytest.mark.parametrize(
    "argv, fixture", GOLDEN_REPORTS, ids=[fixture for _, fixture in GOLDEN_REPORTS]
)
def test_golden_reports(argv, fixture, capsys):
    _, out = run_cli(argv, capsys)
    golden = (FIXTURES / "golden" / fixture).read_text()
    assert strip_elapsed(out) == strip_elapsed(golden)


def test_benchmark_workloads_match_their_reference_digests(capsys):
    """Each perfbench workload's exit code, and the SHA-256 of its report after
    strip_elapsed, equal the values recorded in perfbench/reference.json."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for name, ref in reference.items():
        code, out = run_cli(ref["argv"], capsys)
        digest = hashlib.sha256(strip_elapsed(out).encode()).hexdigest()
        assert (code, digest) == (ref["exit_code"], ref["sha256"]), name


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out = run_cli(["vistoli", "--out", str(target)], capsys)
    assert code == 0
    assert target.read_text() == out


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_file_exits_two(where, tmp_path):
    target = tmp_path / "missing" / "x.txt" if where == "missing-dir" else tmp_path
    result = subprocess.run(
        [sys.executable, "-m", "bpuverify.cli", "spectral", "--out", str(target)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error:"), result.stderr
    assert "Traceback" not in result.stderr


def test_serialize_empty_report():
    empty = VerificationReport("empty")
    doc = json.loads(serialize(empty, "json"))
    assert doc == {"suite": "empty", "checks": [], "elapsed_ms": 0}
    text = serialize(empty, "text")
    assert text == "suite empty\nelapsed_ms 0\n"
    with pytest.raises(ValueError):
        serialize(empty, "yaml")


def test_check_rejects_unknown_status():
    assert Check("n", "finding", "d").witness == ""
    with pytest.raises(ValueError):
        Check("n", "skipped", "d")


def test_reports_do_not_share_checks():
    first, second = VerificationReport("x"), VerificationReport("x")
    first.add("only-here", True, "one check")
    assert [c.name for c in first.checks] == ["only-here"]
    assert second.checks == []


def test_cli_import_path_skips_unneeded_stdlib_modules():
    """A CLI process pays for every module it imports before any suite runs.
    -S keeps site's own imports out of the measured set."""
    probe = (
        "import sys, bpuverify.cli\n"
        "from bpuverify.report import VerificationReport, serialize\n"
        "unneeded = ('argparse', 'dataclasses', 'gettext', 'inspect', 'json', 'locale', 'typing')\n"
        "loaded = [m for m in unneeded if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "report = VerificationReport('probe')\n"
        "report.add('ok', True, 'fine')\n"
        "sys.stdout.write(serialize(report, 'json'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["checks"][0]["name"] == "ok"


def test_a_cli_call_loads_only_its_suites_modules():
    """Importing the CLI loads no suite module; each suite imports its own
    modules when it runs.  -S keeps site's own imports out of the set."""
    probe = (
        "import json, sys, bpuverify.cli\n"
        "if sys.argv[1:]:\n"
        "    bpuverify.cli.main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('bpuverify'))\n"
        "sys.stderr.write(json.dumps(loaded))\n"
    )

    def loaded(*argv):
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe, *argv],
            capture_output=True, text=True, env=_src_env(),
        )
        assert result.stdout.startswith("suite ") if argv else result.stdout == ""
        return set(json.loads(result.stderr))

    assert loaded() == {"bpuverify", "bpuverify.cli", "bpuverify.report"}
    section10 = loaded("section10", "--max-degree", "8")
    assert "bpuverify.mod2alg.suites" in section10
    assert not {"bpuverify.dga", "bpuverify.symfun", "bpuverify.ssverify"} & section10
    k4 = loaded("k4", "--max-degree", "4")
    assert "bpuverify.symfun" in k4
    assert not [m for m in k4 if m.startswith(("bpuverify.mod2alg", "bpuverify.dga", "bpuverify.gf2"))]
    # both certify their lead facts by a rank over Q on plain lists: no integer matrices
    assert "bpuverify.intlinalg" not in k4 | section10
    assert "bpuverify.intlinalg" in loaded("coker", "--max-degree", "4")


def test_a_suite_that_parses_no_text_never_scans_polynomial_text():
    """poly scans polynomial text only when a suite parses some: the
    scanner, spied on in a fresh interpreter, is never called in k4."""
    probe = (
        "import sys\n"
        "import bpuverify.cli\n"
        "from bpuverify import poly\n"
        "seen, real = [], poly._scan\n"
        "poly._scan = lambda text: seen.append(text) or real(text)\n"
        "code = bpuverify.cli.main(sys.argv[1:])\n"
        "sys.stderr.write(f'{code} {len(seen)}')\n"
    )

    def scanned(*argv):
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe, *argv],
            capture_output=True, text=True, env=_src_env(),
        )
        code, count = result.stderr.split()
        return int(code), int(count)

    assert scanned("k4", "--max-degree", "8") == (1, 0)
    code, count = scanned("dga", "--max-degree", "8")
    assert code == 0 and count > 0


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero_with_usage_and_every_suite_on_stdout(flag, capsys):
    assert cli.main([flag]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage:")
    assert captured.err == ""
    for name in [name for name, _ in cli.SUITES] + ["all"]:
        assert name in captured.out, name


def test_option_spellings_and_positions_give_the_same_report(capsys):
    reports = []
    for argv in (
        ["coker", "--max-degree", "5"],
        ["coker", "--max-degree=5"],
        ["--max-degree", "5", "coker"],
        ["--format=text", "--max-degree=5", "coker"],
        ["coker", "--max-degree", "9", "--max-degree=5"],
    ):
        code, out = run_cli(argv, capsys)
        assert code == 0, argv
        reports.append(strip_elapsed(out))
    assert reports[1:] == reports[:1] * 4


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["spectral", "coker"],
        ["spectral", "--verbose"],
        ["vistoli", "--prime"],
        ["spectral", "--format", "yaml"],
        ["k4", "--max", "5"],
        ["k4", "--max=5"],
        ["--out"],
        ["vistoli", "--out="],
        ["vistoli", "--out", ""],
    ],
    ids=["no-suite", "two-suites", "unknown-option", "no-value", "format-yaml",
         "abbreviation", "abbreviation-equals", "only-an-option", "empty-out-equals",
         "empty-out"],
)
def test_malformed_command_lines_are_usage_errors(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage:"), captured.err


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    """run(), the entry of the console script and of ``python -m``, calls
    main() with no arguments."""
    monkeypatch.setattr(sys, "argv", ["bpuverify", "vistoli", "--format=json"])
    code, out = run_cli(None, capsys)
    assert code == 0
    assert json.loads(out)["suite"] == "vistoli"
    monkeypatch.setattr(sys, "argv", ["bpuverify", "vistoli", "--prime", "9"])
    assert cli.main() == 2
    assert capsys.readouterr().err.startswith("usage:")


@pytest.mark.parametrize(
    "argv, code",
    [(["spectral"], 0), (["k4", "--max-degree", "8"], 1), (["vistoli", "--prime", "9"], 2)],
    ids=["pass", "fail", "usage"],
)
def test_run_freezes_once_after_the_report_is_written(argv, code, tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.txt"
    argv = argv + ["--out", str(target)]
    assert cli.main(argv) == code
    expected = capsys.readouterr()
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(
        (capsys.readouterr(), target.read_text() if target.exists() else None)))
    monkeypatch.setattr(sys, "argv", ["bpuverify"] + argv)
    target.unlink(missing_ok=True)
    assert cli.run() == code
    assert len(freezes) == 1
    (out, err), written = freezes[0]
    assert strip_elapsed(out) == strip_elapsed(expected.out)
    assert err == expected.err
    assert written == (out if code != 2 else None)


def test_main_never_freezes(capsys, monkeypatch):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(True))
    for argv in (["spectral"], ["k4", "--max-degree", "8"], ["vistoli", "--prime", "9"], ["-h"]):
        cli.main(argv)
    capsys.readouterr()
    assert freezes == []


def test_only_the_process_entry_freezes_the_heap():
    probe = (
        "import gc, sys, bpuverify.cli\n"
        "counts = [gc.get_freeze_count()]\n"
        "bpuverify.cli.main(['spectral'])\n"
        "counts.append(gc.get_freeze_count())\n"
        "sys.argv[1:] = ['spectral']\n"
        "code = bpuverify.cli.run()\n"
        "sys.stderr.write(f'{code} {counts[0]} {counts[1]} {gc.get_freeze_count() > 0}')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env(),
    )
    assert result.stderr == "0 0 0 True"
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'bpuverify = "bpuverify.cli:run"' in pyproject
    assert (ROOT / "src" / "bpuverify" / "cli.py").read_text().endswith(
        'if __name__ == "__main__":\n    sys.exit(run())\n')


def test_module_entry_writes_the_in_process_report(tmp_path, capsys):
    target = tmp_path / "dga.txt"
    argv = ["dga", "--max-degree", "20"]
    result = subprocess.run(
        [sys.executable, "-m", "bpuverify.cli", *argv, "--out", str(target)],
        capture_output=True, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == target.read_bytes()
    _, out = run_cli(argv, capsys)
    assert strip_elapsed(result.stdout.decode()) == strip_elapsed(out)


def test_every_annotation_in_the_package_resolves():
    """Annotations are strings (``from __future__ import annotations``), so a
    name that no module imports shows only when they are evaluated."""
    import importlib
    import inspect
    import pkgutil
    import typing

    import bpuverify

    checked = 0
    for info in pkgutil.walk_packages(bpuverify.__path__, "bpuverify."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                member = getattr(member, "fget", getattr(member, "__func__", member))
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
                    checked += 1
    assert checked > 100
