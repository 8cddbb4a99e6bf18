"""Run one bpuverify CLI call with the public entry points of every layer traced.

usage: python perfbench/traced_cli.py FD SUITE [CLI OPTIONS...]

The layers are poly -> intlinalg/gf2 -> symfun/mod2alg -> dga/suites -> cli.
The report goes to standard output and the exit code is the CLI's, exactly
as with ``python -m bpuverify.cli SUITE ...``; the span summary (see
spans.py) is written as one JSON object to the inherited file descriptor FD.
The package must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import os
import sys

from spans import Tracer


def _matrix_key(a):
    return a.entries


def _nabla_key(ctx, degree, modulus=0):
    return ctx.n, degree, modulus


def _normal_form_key(algebra, p):
    return algebra.name, frozenset(p)


def _transform_bits(extra, args, result):
    """Largest entry bit-length of the unimodular transform U in (H, U)."""
    _, u = result
    bits = max((abs(x).bit_length() for row in u.entries for x in row), default=0)
    extra["max_bits"] = max(extra.get("max_bits", 0), bits)


def _rank_vectors(extra, args, result):
    extra["vectors"] = extra.get("vectors", 0) + len(args[0])


def install(tracer: Tracer) -> None:
    """Trace every entry point named in the benchmark's per-layer metrics."""
    from bpuverify import cli, dga, gf2, intlinalg, poly, symfun
    from bpuverify.mod2alg import algebra, steenrod, suites

    entries = (
        (poly, "parse_polynomial", "poly.parse_polynomial", None, None),
        (poly.Polynomial, "__mul__", "poly.Polynomial.mul", None, None),
        (poly, "monomial_basis", "poly.monomial_basis", None, None),
        (intlinalg, "hermite_normal_form", "intlinalg.hermite_normal_form",
         _matrix_key, _transform_bits),
        (intlinalg, "integer_kernel", "intlinalg.integer_kernel", None, None),
        (intlinalg, "solve_integer", "intlinalg.solve_integer", None, None),
        (intlinalg, "smith_normal_form", "intlinalg.smith_normal_form", _matrix_key, None),
        (intlinalg.IntMatrix, "__matmul__", "intlinalg.IntMatrix.matmul", None, None),
        (gf2, "rank", "gf2.rank", None, _rank_vectors),
        (symfun, "nabla_matrix", "symfun.nabla_matrix", _nabla_key, None),
        (symfun, "coker_order", "symfun.coker_order", None, None),
        (symfun, "certify_k4_presentation", "symfun.certify_k4_presentation", None, None),
        (algebra.PresentedAlgebra, "__init__", "mod2alg.PresentedAlgebra.init", None, None),
        (algebra.PresentedAlgebra, "normal_form", "mod2alg.PresentedAlgebra.normal_form",
         _normal_form_key, None),
        (algebra.PresentedAlgebra, "monomials_of_degree",
         "mod2alg.PresentedAlgebra.monomials_of_degree", None, None),
        (algebra.AlgebraMap, "apply", "mod2alg.AlgebraMap.apply", None, None),
        (steenrod.SteenrodAction, "sq", "mod2alg.SteenrodAction.sq", None, None),
        (suites, "verify_reduction_image_claims",
         "mod2alg.verify_reduction_image_claims", None, None),
        (dga, "differential", "dga.differential", None, None),
        (dga, "homotopy_p", "dga.homotopy_p", None, None),
        (dga, "homology_dimension", "dga.homology_dimension", None, None),
        (dga, "verify_differential_squares_to_zero",
         "dga.verify_differential_squares_to_zero", None, None),
        (dga, "dga_suite", "dga.dga_suite", None, None),
        (cli, "run_suite", "cli.run_suite", None, None),
    )
    for owner, attr, label, key, observe in entries:
        tracer.patch(owner, attr, label, "bpuverify", key=key, observe=observe)


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    fd = int(argv[0])
    from bpuverify import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(argv[1:])
    sys.stdout.flush()
    with os.fdopen(fd, "w") as out:
        json.dump(tracer.summary(), out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
