"""Reference implementations kept as test oracles.

Each function here is a slower, independent route to a result that the
library computes another way; tests assert that both agree.
"""

import math

from chipfire import InputError, IntMatrix, IntPoly, determinant


def char_poly(a: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - a) with integer coefficients.

    Computed by evaluating det(tI - a) at t = 0..m with Bareiss and then
    interpolating through Newton forward differences.  The difference-table
    coefficients expand the polynomial in the binomial basis, and clearing the
    m! denominator keeps everything in integers; the final division is exact
    because the target polynomial has integer coefficients.
    """
    if not a.is_square:
        raise InputError(f"char_poly needs a square matrix, got {a.rows}x{a.cols}")
    m = a.rows
    if m == 0:
        return IntPoly([1])

    values = []
    for t in range(m + 1):
        shifted = IntMatrix(
            m,
            m,
            [
                (t if i == j else 0) - a.entry(i, j)
                for i in range(m)
                for j in range(m)
            ],
        )
        values.append(determinant(shifted))

    # forward differences: diffs[k] == Delta^k f(0)
    diffs = []
    level = values
    for _ in range(m + 1):
        diffs.append(level[0])
        level = [level[i + 1] - level[i] for i in range(len(level) - 1)]

    m_fact = math.factorial(m)
    scaled = [0] * (m + 1)  # coefficients of m! * det(xI - a)
    falling = [1]  # x(x-1)...(x-k+1), ascending coefficients
    for k in range(m + 1):
        weight = diffs[k] * (m_fact // math.factorial(k))
        for i, c in enumerate(falling):
            scaled[i] += weight * c
        # falling *= (x - k)
        falling = [0] + falling
        for i in range(len(falling) - 1):
            falling[i] -= k * falling[i + 1]

    coeffs = []
    for c in scaled:
        q, r = divmod(c, m_fact)
        if r != 0:
            raise AssertionError("interpolation produced a non-integer coefficient")
        coeffs.append(q)
    return IntPoly(coeffs)
