"""Recovering structure constants from a smooth rack product.

The bracket is the mixed second derivative of the product at the base
point: for P(x, y) = exp(ad_x)(y), the coefficient of s*t in P(s e_i, t e_j)
is [e_i, e_j].  A centered stencil in both slots kills every term that is
not odd in both arguments, so the recovery error is O(step^2).
"""

import math


def tangent_recover(product, dim, step=1e-3):
    """Approximate c[i][j][k] from a float rack product by central differences.

    ``product`` maps two float coordinate lists to one.  Raises ValueError
    naming the basis pair if the product returns NaN.
    """
    h = float(step)
    table = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            corners = []
            for sx in (h, -h):
                for sy in (h, -h):
                    x = [0.0] * dim
                    y = [0.0] * dim
                    x[i] = sx
                    y[j] = sy
                    corners.append(product(x, y))
            for k in range(dim):
                value = (
                    corners[0][k] - corners[1][k] - corners[2][k] + corners[3][k]
                ) / (4.0 * h * h)
                if math.isnan(value):
                    raise ValueError(
                        f"rack product returned NaN near basis pair ({i + 1}, {j + 1})"
                    )
                table[i][j][k] = value
    return table


def max_table_error(table, algebra):
    """Largest entrywise deviation from the algebra's exact table, in (i, j, k) order.

    The entries come from ``float_sparse``, ``float(c)`` bit for bit, and a
    zero entry is 0.0; no dense Fraction table is built.
    """
    exact = {
        (i, j, k): c
        for i, plane in enumerate(algebra.float_sparse)
        for j, entries in plane
        for k, c in entries
    }
    n = algebra.dim
    return max(
        abs(table[i][j][k] - exact.get((i, j, k), 0.0))
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )
