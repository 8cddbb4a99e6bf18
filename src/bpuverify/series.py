"""Integer power-series coefficients used as rank oracles.

Graded dimensions throughout the toolkit are compared against closed-form
Hilbert series; these helpers expand such series exactly to a finite order.
"""

from __future__ import annotations


def geometric_product(weights, max_degree: int) -> list:
    """Coefficients of prod_w 1/(1 - t^w) up to ``max_degree`` inclusive.

    Repeated weights are repeated factors (one per generator).
    """
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    for w in weights:
        if w <= 0:
            raise ValueError("weights must be positive")
        for d in range(w, max_degree + 1):
            coeffs[d] += coeffs[d - w]
    return coeffs

