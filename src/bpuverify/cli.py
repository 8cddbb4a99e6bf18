"""Command-line verification runner.

Runs the registered suites and emits deterministic text or JSON reports:
one line per check in text mode, the documented object schema in JSON mode.
Exit status: 0 when no check failed (findings do not fail a run), 1 on any
failing check, 2 on usage or internal errors or an unwritable ``--out`` file.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import dga, ssverify, symfun
from .intlinalg import _is_prime
from .mod2alg import suites as mod2suites
from .poly import monomial_basis
from .report import VerificationReport, serialize


def _run_k4(opts) -> VerificationReport:
    return symfun.certify_k4_presentation(opts.max_degree or 16)


def _run_coker(opts) -> VerificationReport:
    """Orders in the cokernel of the divergence: every monomial in the
    degree-4 and degree-6 generators (1 included) has order exactly 4.

    Each order rests on two certificates and no Smith normal form: the slice
    identity divergence(s1*f) == 4*f bounds it by 4, and a functional found
    by elimination over Z/2^E, vanishing on the divergence matrix modulo 2^E
    but not on 2*f, shows that 2*f is not in the image.  Only order/s1,
    whose divergence is not zero, takes the Smith normal form route."""
    report = VerificationReport("coker")
    ctx = symfun.SymmetricContext(4)
    al = symfun.alpha_generators(ctx)
    max_degree = opts.max_degree or 16
    for d in range(0, max_degree + 1):
        for c, e in reversed(monomial_basis(d, (4, 6))):
            f = al.a4 ** c * al.a6 ** e
            order = symfun.coker_order(ctx, f)
            label = f"a4^{c}*a6^{e}" if (c or e) else "1"
            report.add(
                f"order/{label}",
                order == 4,
                f"order of {label} in the degree-{d} cokernel is {order}",
            )
    sigma1_order = symfun.coker_order(ctx, ctx.sigma(1))
    report.add(
        "order/s1",
        sigma1_order == 1,
        f"s1 lies in the image (order {sigma1_order}): gcd(8,3) = 1",
    )
    return report


def _run_vistoli(opts) -> VerificationReport:
    return symfun.vistoli_delta_check(opts.prime or 3)


def _run_steenrod(opts) -> VerificationReport:
    report = mod2suites.verify_steenrod_theorem()
    report.extend(mod2suites.verify_restriction_square_identities(), prefix="restriction/")
    return report


def _run_bpu2(opts) -> VerificationReport:
    return mod2suites.verify_bpu2_images()


def _run_reduction_image(opts) -> VerificationReport:
    return mod2suites.verify_reduction_image_claims(opts.max_degree or 24)


def _run_dga(opts) -> VerificationReport:
    return dga.dga_suite(opts.max_degree or 40)


def _run_spectral(opts) -> VerificationReport:
    return ssverify.spectral_suite()


SUITES = (
    ("k4", _run_k4),
    ("coker", _run_coker),
    ("vistoli", _run_vistoli),
    ("steenrod", _run_steenrod),
    ("bpu2", _run_bpu2),
    ("section10", _run_reduction_image),
    ("dga", _run_dga),
    ("spectral", _run_spectral),
)


def run_suite(name: str, opts) -> VerificationReport:
    for sname, fn in SUITES:
        if sname == name:
            start = time.perf_counter()
            report = fn(opts)
            report.suite = sname
            report.elapsed_ms = int((time.perf_counter() - start) * 1000)
            return report
    raise KeyError(name)


# the suites that read each option; "all" reads both
_OPTION_READERS = {
    "max_degree": ("k4", "coker", "section10", "dga"),
    "prime": ("vistoli",),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _odd_prime(text: str) -> int:
    value = _positive_int(text)
    if value % 2 == 0 or not _is_prime(value):
        raise argparse.ArgumentTypeError(f"must be an odd prime, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpuverify",
        description="Exact-arithmetic verification suites for the cohomology "
        "computations around BPU(4).",
    )
    parser.add_argument(
        "suite",
        choices=[name for name, _ in SUITES] + ["all"],
        help="verification suite to run",
    )
    parser.add_argument(
        "--max-degree",
        type=_positive_int,
        default=None,
        help="degree bound for the graded sweeps of k4 (at least 2), coker, "
        "section10 and dga (defaults: k4/coker 16, section10 24, dga 40)",
    )
    parser.add_argument(
        "--prime", type=_odd_prime, default=None,
        help="odd prime for the vistoli suite (default 3)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument("--out", default=None, help="also write the report to FILE")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
        for option, readers in _OPTION_READERS.items():
            if getattr(opts, option) is not None and opts.suite not in readers + ("all",):
                parser.error(f"suite {opts.suite} does not read --{option.replace('_', '-')}")
        if opts.suite in ("k4", "all") and opts.max_degree == 1:
            parser.error("k4 needs --max-degree of at least 2")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if opts.suite == "all":
            reports = [run_suite(name, opts) for name, _ in SUITES]
        else:
            reports = [run_suite(opts.suite, opts)]
        rendered = serialize(reports if opts.suite == "all" else reports[0], opts.format)
    except Exception as exc:  # internal error contract
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rendered)
    if opts.out:
        try:
            with open(opts.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write --out file: {exc}", file=sys.stderr)
            return 2
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
