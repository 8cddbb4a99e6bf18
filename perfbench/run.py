"""Time to verdict for bpuverify certification workloads.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the package is imported from ``src/``; no
install or build step).  Each sample is one CLI call made the way a user
makes it: a fresh ``python -m bpuverify.cli SUITE --max-degree N`` child,
one child at a time, with ``BPUVERIFY_THREADS`` removed from its
environment so the degree sweeps take their default single-threaded route,
and ``PYTHONDONTWRITEBYTECODE`` removed so the package's bytecode cache is
written once (under ``src/``) and then used, as in an installed copy.
The program reads no randomness, so the workloads are fixed; ``--seed`` only
orders the samples inside each round.

Every child is checked against perfbench/reference.json, recorded at the
seed commit with record_reference.py: the exit code and the SHA-256 of the
report after ``bpuverify.report.strip_elapsed``.  A wrong exit code, a
crash, a timeout or a different digest counts as a failed run.

--trace 0: rounds of one timed child plus SETUP_PROBES fresh interpreters
  that import ``bpuverify.cli`` and exit, until --seconds have passed, with a
  pass of a fixed pure-Python calibration before the first round and after
  each round.  Reports the end-to-end metrics of BENCHMARK.json: the median
  over rounds of the child's wall and CPU time and of the round's fastest
  probe, each in reference seconds (see ``calibrate``), and the median peak
  RSS.
--trace 1: rounds of one untraced and one traced child (traced_cli.py).
  The traced report must equal the untraced one byte for byte and the
  per-entry call counts must repeat exactly.  Reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
(prefixed ``#``) give each metric's minimum, median, quartiles and sample
count, and the interpreter, core count, git sha and load average at the start
and end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Degree bounds keep one child near 1-2 reference seconds (see calibrate) on
# a 2-core x86 VM with Python 3.11, so a 30 s run takes 10 to 25 rounds: each
# round's scaled time still varies by 10-30%, and the run's median settles as
# the rounds grow in number.
WORKLOADS = {
    "kernel-lattice": ("k4", "--max-degree", "22"),
    "cokernel-orders": ("coker", "--max-degree", "17"),
    "mod2-homology": ("dga", "--max-degree", "54"),
    "mod2-subalgebra": ("section10", "--max-degree", "60"),
}
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120.0
# Times are reported in reference seconds: seconds on a machine where one
# pass of calibration_work takes CALIBRATION_REF_S, of wall and of CPU time.
CALIBRATION_REF_S = 0.2
CALIBRATION_RESULT = 124665


def calibration_work() -> int:
    """Fixed pure-Python work shaped like bpuverify's: fraction-free integer
    elimination with growing ints, products of mod-2 polynomials held as sets
    of exponent tuples, and parsing terms from text.  It imports nothing from
    bpuverify, so a change to the program cannot change it."""
    rng = random.Random(20240513)
    n = 48
    m = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
    prev = 1
    for k in range(n - 1):
        piv = m[k][k] or 1
        rk = m[k]
        for i in range(k + 1, n):
            ri, f = m[i], m[i][k]
            m[i] = [(piv * ri[j] - f * rk[j]) // prev if j > k else 0 for j in range(n)]
        prev = piv
    a = {tuple(rng.randint(0, 6) for _ in range(4)) for _ in range(80)}
    b = {tuple(rng.randint(0, 6) for _ in range(4)) for _ in range(80)}
    terms = 0
    for _ in range(12):
        out = set()
        for x in a:
            for y in b:
                out ^= {tuple(p + q for p, q in zip(x, y))}
        terms += len(out)
        a = set(sorted(out)[:80])
    text = " + ".join("x0^%d*x1^%d*x2^%d" % t[:3] for t in sorted(out))
    for _ in range(5):
        parsed = [tuple(int(f.split("^")[1]) for f in term.split("*"))
                  for term in text.split(" + ")]
        text = " + ".join("x0^%d*x1^%d*x2^%d" % t for t in parsed)
    return terms + len(text) + m[-1][-1].bit_length()


def calibrate() -> tuple:
    """Wall and CPU seconds of one calibration pass in this process.

    Other tenants of the shared host slow every process on the VM, for
    seconds to minutes at a time, by 30-60%, and the fastest child of a run
    does not escape it.  A child's time divided by the mean of the passes
    just before and just after its round cancels most of that: in a set of
    ten 30 s runs per workload on a 2-core VM, run medians of the scaled wall
    time spread (quartile distance over median) by 2-5%, where run medians
    of the raw wall time spread by 12-31% and run minima by 10-46%.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    result = calibration_work()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if result != CALIBRATION_RESULT:
        raise SystemExit(f"calibration computed {result}, not {CALIBRATION_RESULT}")
    return wall, cpu


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    trace: bytes
    timed_out: bool


# BPUVERIFY_THREADS would switch the k4 sweep to its thread pool;
# PYTHONDONTWRITEBYTECODE would make every child compile the package again,
# a cost an installed copy pays once.
DROPPED_ENV = ("BPUVERIFY_THREADS", "PYTHONDONTWRITEBYTECODE")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, env, traced: bool = False, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; wall time is from spawn until it is reaped.

    CPU time and peak RSS come from ``os.wait4`` on this child alone
    (``RUSAGE_CHILDREN`` would report the largest earlier child's peak).
    """
    trace_r = trace_w = None
    if traced:
        trace_r, trace_w = os.pipe()
        argv = [argv[0], str(BENCH_DIR / "traced_cli.py"), str(trace_w), *argv[3:]]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        pass_fds=(trace_w,) if traced else (),
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    streams = {out_fd: [], err_fd: []}
    if traced:
        os.close(trace_w)
        streams[trace_r] = []
    timed_out = False
    deadline = start + timeout
    with selectors.DefaultSelector() as sel:
        for fd in streams:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    streams[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if traced:
        os.close(trace_r)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stdout=b"".join(streams[out_fd]),
        stderr=b"".join(streams[err_fd]),
        trace=b"".join(streams[trace_r]) if traced else b"",
        timed_out=timed_out,
    )


def report_digest(report: bytes) -> str:
    """SHA-256 of a report with its elapsed-time field removed."""
    from bpuverify.report import strip_elapsed

    text = strip_elapsed(report.decode("utf-8", "replace"))
    return hashlib.sha256(text.encode()).hexdigest()


def verdict_ok(ref: dict, child: Child) -> bool:
    """Exit code and stripped-report digest equal the seed-commit reference."""
    if child.timed_out or child.exit_code != ref["exit_code"]:
        return False
    return report_digest(child.stdout) == ref["sha256"]


def git_sha() -> str:
    """The checkout's HEAD commit read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }


def spread(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(set(values)) == 1:  # one sample, or a count that repeats exactly
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One benchmark invocation: schedules children and counts failures."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, "-m", "bpuverify.cli", *WORKLOADS[workload]]
        self.ref = json.loads((BENCH_DIR / "reference.json").read_text())[workload]
        if self.ref["argv"] != list(WORKLOADS[workload]):
            raise SystemExit(f"reference.json was recorded for {self.ref['argv']}")
        self.env = child_env()
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def verdict(self, traced: bool = False):
        """Run the workload once; return the child and whether it passed."""
        child = run_child(self.argv, self.env, traced=traced)
        self.attempted += 1
        ok = verdict_ok(self.ref, child)
        if not ok:
            self.fail(
                f"{'traced' if traced else 'plain'} run failed: exit {child.exit_code}"
                f"{' (timeout)' if child.timed_out else ''}: "
                f"{child.stderr.decode('utf-8', 'replace').strip()[-300:]}"
            )
        return child, ok

    def setup_probe(self) -> float:
        child = run_child([sys.executable, "-c", "import bpuverify.cli"], self.env)
        if child.exit_code != 0:
            sys.stderr.write(child.stderr.decode("utf-8", "replace"))
            raise SystemExit("importing bpuverify.cli failed")
        return child.wall_s

    def rounds(self, tasks):
        """Yield each round's tasks in a seed-chosen order until time is up.

        A new round starts only if the mean round so far still fits in the
        run, so a run ends close to --seconds; the first round always runs.
        """
        start = time.perf_counter()
        done = 0
        while True:
            order = list(tasks)
            self.rng.shuffle(order)
            yield order
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > self.seconds:
                return

    def end_to_end(self) -> tuple:
        """(metric samples, raw samples): each round's child time and fastest
        probe in reference seconds, scaled by the calibration passes that
        bracket the round; the raw times and passes are printed alongside."""
        metrics = {"verdict_s": [], "verdict_cpu_s": [], "peak_rss_mb": [], "setup_s": []}
        raw = {"raw_verdict_s": [], "raw_verdict_cpu_s": [], "raw_setup_s": [],
               "calibration_s": [], "calibration_cpu_s": []}
        cal = calibrate()
        for order in self.rounds(["verdict"] + ["setup"] * SETUP_PROBES):
            probes = []
            for task in order:
                if task == "setup":
                    probes.append(self.setup_probe())
                else:
                    child, _ = self.verdict()
            before, cal = cal, calibrate()
            wall_ref = (before[0] + cal[0]) / 2 / CALIBRATION_REF_S
            cpu_ref = (before[1] + cal[1]) / 2 / CALIBRATION_REF_S
            metrics["verdict_s"].append(child.wall_s / wall_ref)
            metrics["verdict_cpu_s"].append(child.cpu_s / cpu_ref)
            metrics["peak_rss_mb"].append(child.rss_mb)
            metrics["setup_s"].append(min(probes) / wall_ref)
            for name, value in (("raw_verdict_s", child.wall_s), ("raw_verdict_cpu_s", child.cpu_s),
                                ("raw_setup_s", min(probes)), ("calibration_s", cal[0]),
                                ("calibration_cpu_s", cal[1])):
                raw[name].append(value)
        metrics["pass_share"] = [(self.attempted - self.failed) / self.attempted]
        return metrics, raw

    def per_layer(self, names) -> dict:
        """Pairs of untraced and traced runs.  Both reports must match the
        reference digest, so the traced report equals the untraced one byte
        for byte after strip_elapsed."""
        plain_walls, traced_walls, summaries = [], [], []
        for order in self.rounds(["plain", "traced"]):
            runs = {task: self.verdict(traced=task == "traced") for task in order}
            plain_walls.append(runs["plain"][0].wall_s)
            traced, ok = runs["traced"]
            traced_walls.append(traced.wall_s)
            if not ok:
                continue
            try:
                summary = json.loads(traced.trace)
            except ValueError:
                self.fail("traced run wrote no span summary")
                continue
            calls = {k: v["calls"] for k, v in summary.items()}
            if summaries and calls != {k: v["calls"] for k, v in summaries[0].items()}:
                self.fail("per-entry call counts changed between traced runs")
            summaries.append(summary)
        if not summaries:
            return {}
        # traced minus untraced wall time of each round; the report takes the median
        overhead = [t - p for p, t in zip(plain_walls, traced_walls)]
        return {
            name: overhead if name == "trace.overhead_s"
            else [layer_metric(name, s) for s in summaries]
            for name in names
        }


def layer_metric(name: str, summary: dict) -> float:
    """One per-layer metric from a traced run's span summary.

    ``layer.L.self_s`` sums the self time of every entry point of layer L;
    otherwise the name is ``<entry point>.<field>``, and ``distinct_ratio`` is
    distinct inputs / calls (0 when the entry point was not called).
    """
    if name.startswith("layer."):
        layer = name.split(".")[1]
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + "."))
    label, field = name.rsplit(".", 1)
    entry = summary[label]
    if field == "distinct_ratio":
        return entry["distinct"] / entry["calls"] if entry["calls"] else 0.0
    return entry.get(field, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args(argv)
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "bpuverify" / "cli.py").is_file():
        print(f"no bpuverify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if opts.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    run = Run(opts.workload, opts.seed, opts.seconds)
    print(f"# workload {opts.workload}: bpuverify {' '.join(WORKLOADS[opts.workload])}"
          f" (seed {opts.seed}, {opts.seconds:g} s, trace {opts.trace})")
    print(f"# env start {json.dumps(environment())}", flush=True)
    run.setup_probe()  # writes the bytecode cache, as the first use after an install does
    if opts.trace:
        samples, raw = run.per_layer(units), {}
    else:
        calibrate()  # warm-up pass, not used
        samples, raw = run.end_to_end()
    for note in run.notes:
        print(f"# {note}")
    metrics = {}
    for name, unit in units.items():
        if name not in samples:
            continue
        values = samples[name]
        q1, median, q3 = spread(values)
        print(f"# {name}: {median:.6g} {unit} (min {min(values):.6g} median {median:.6g}"
              f" q1 {q1:.6g} q3 {q3:.6g} n {len(values)})")
        metrics[name] = {"value": median, "unit": unit}
    for name, values in raw.items():
        q1, median, q3 = spread(values)
        print(f"# {name} (measured): min {min(values):.6g} median {median:.6g}"
              f" q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
    print(f"# env end {json.dumps(environment())}")
    result = {
        "correct": run.failed == 0 and len(metrics) == len(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
