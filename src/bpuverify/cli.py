"""Command-line verification runner.

Runs the registered suites and emits deterministic text or JSON reports:
one line per check in text mode, the documented object schema in JSON mode.
Exit status: 0 when no check failed (findings do not fail a run), 1 on any
failing check, 2 on usage or internal errors or an unwritable ``--out`` file.
The command line is read off the tables ``SUITES``, ``_OPTIONS`` and
``_OPTION_READERS``; each suite imports its modules when it runs.
"""

from __future__ import annotations

import sys
import time

from .report import VerificationReport, serialize


def _run_k4(opts) -> VerificationReport:
    from . import symfun
    return symfun.certify_k4_presentation(opts.max_degree or 16)


def _run_coker(opts) -> VerificationReport:
    """Orders in the cokernel of the divergence: every monomial in the
    degree-4 and degree-6 generators (1 included) has order exactly 4.

    The orders come from ``symfun.monomial_coker_orders``: the slice bounds
    each by 4, and a monomial with a multiple of order 4 has order 4, since
    multiplying by a divergence-free generator keeps the divergence's image.
    Only the others, here the monomials of degree above max_degree - 4, get
    their own lower bound from ``coker_order``: a functional found by
    elimination over Z/2^E, vanishing on the divergence matrix modulo 2^E
    but not on 2*f.  So only the two top even degrees are eliminated.  Only
    order/s1, whose divergence is not zero, takes the Smith normal form route."""
    from . import symfun
    report = VerificationReport("coker")
    ctx = symfun.SymmetricContext(4)
    al = symfun.alpha_generators(ctx)
    orders = symfun.monomial_coker_orders(ctx, (al.a4, al.a6), opts.max_degree or 16)
    for (c, e), order in orders.items():
        label = f"a4^{c}*a6^{e}" if (c or e) else "1"
        report.add(
            f"order/{label}",
            order == 4,
            f"order of {label} in the degree-{4 * c + 6 * e} cokernel is {order}",
        )
    sigma1_order = symfun.coker_order(ctx, ctx.sigma(1))
    report.add(
        "order/s1",
        sigma1_order == 1,
        f"s1 lies in the image (order {sigma1_order}): gcd(8,3) = 1",
    )
    return report


def _run_vistoli(opts) -> VerificationReport:
    from . import symfun
    return symfun.vistoli_delta_check(opts.prime or 3)


def _run_steenrod(opts) -> VerificationReport:
    from .mod2alg import suites as mod2suites
    report = mod2suites.verify_steenrod_theorem()
    report.extend(mod2suites.verify_restriction_square_identities(), prefix="restriction/")
    return report


def _run_bpu2(opts) -> VerificationReport:
    from .mod2alg import suites as mod2suites
    return mod2suites.verify_bpu2_images()


def _run_reduction_image(opts) -> VerificationReport:
    from .mod2alg import suites as mod2suites
    return mod2suites.verify_reduction_image_claims(opts.max_degree or 24)


def _run_dga(opts) -> VerificationReport:
    from . import dga
    return dga.dga_suite(opts.max_degree or 40)


def _run_spectral(opts) -> VerificationReport:
    from . import ssverify
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
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


_MAX_PRIME = 23  # the largest prime that vistoli runs within 20 s and 256 MB (README)


def _odd_prime(text: str) -> int:
    """An odd prime up to ``_MAX_PRIME``: vistoli's power sums grow with the
    partitions of 2p - 2, and at 29 a run took 103 s and 1.4 GB."""
    from .intlinalg import _is_prime
    value = _positive_int(text)
    if value % 2 == 0 or not _is_prime(value):
        raise ValueError(f"must be an odd prime, got {value}")
    if value > _MAX_PRIME:
        raise ValueError(f"vistoli supports the odd primes up to {_MAX_PRIME}, got {value}")
    return value


def _file_name(text: str) -> str:
    if not text:
        raise ValueError("expected a file name, got ''")
    return text


# option -> (converter, metavar, help); each sets the attribute named after it
_OPTIONS = {
    "--max-degree": (_positive_int, "N", "degree bound for the graded sweeps of k4 (at least "
                     "2), coker, section10 and dga (defaults: k4/coker 16, section10 24, dga 40)"),
    "--prime": (_odd_prime, "P", f"odd prime up to {_MAX_PRIME} for vistoli (default 3)"),
    "--format": (str, "{text,json}", "report format (default text)"),
    "--out": (_file_name, "FILE", "also write the report to FILE"),
}


class Options:
    """A parsed command line: the suite, and each option's value or default."""
    suite = max_degree = prime = out = None
    format = "text"


_USAGE = "usage: bpuverify [-h]{} {{{},all}}\n".format(
    "".join(f" [{option} {metavar}]" for option, (_, metavar, _) in _OPTIONS.items()),
    ",".join(name for name, _ in SUITES))


def parse_args(argv) -> Options | None:
    """The suite and options of a command line, or None after printing the
    -h/--help text.  An option, on either side of the suite, takes the next
    argument or the text after ``=``.  Raises ValueError on a usage error."""
    opts, args = Options(), iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            sys.stdout.write(_USAGE + "".join(
                f"  {flag} {meta}: {text}\n" for flag, (_, meta, text) in _OPTIONS.items()))
            return None
        option, eq, value = arg.partition("=")
        if option in _OPTIONS:
            value = value if eq else next(args, None)
            try:
                if value is None:
                    raise ValueError("expected one argument")
                setattr(opts, option[2:].replace("-", "_"), _OPTIONS[option][0](value))
            except ValueError as exc:
                raise ValueError(f"argument {option}: {exc}") from None
        elif opts.suite is None and arg in [name for name, _ in SUITES] + ["all"]:
            opts.suite = arg
        else:
            raise ValueError(f"unrecognized argument: {arg}")
    if opts.suite is None:
        raise ValueError("a suite is required")
    if opts.format not in ("text", "json"):
        raise ValueError(f"argument --format: invalid choice: {opts.format!r}")
    for option, readers in _OPTION_READERS.items():
        if getattr(opts, option) is not None and opts.suite not in readers + ("all",):
            raise ValueError(f"suite {opts.suite} does not read --{option.replace('_', '-')}")
    if opts.suite in ("k4", "all") and opts.max_degree == 1:
        raise ValueError("k4 needs --max-degree of at least 2")
    return opts


def main(argv=None) -> int:
    try:
        opts = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        sys.stderr.write(f"{_USAGE}bpuverify: error: {exc}\n")
        return 2
    if opts is None:
        return 0
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
    if opts.out is not None:
        try:
            with open(opts.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write --out file: {exc}", file=sys.stderr)
            return 2
    return 0 if all(r.passed for r in reports) else 1


def run() -> int:
    """The process entry (``python -m bpuverify.cli`` and the ``bpuverify``
    console script): ``main()``'s exit code, with the heap frozen once the
    report is written.

    The interpreter's exit runs full collections over every object still
    alive; frozen objects are skipped, while atexit handlers, stdio flushing
    and module teardown still run.  In-process callers use ``main()``, which
    never freezes."""
    import gc
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
