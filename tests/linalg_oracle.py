"""The Fraction Gauss-Jordan kernel that linalg._eliminate replaced, kept as
its oracle, with the rank, independent-row, nullspace, solve, inverse and
determinant routes that read it.  Every row is converted to Fractions and
each pivot row is scaled by the pivot's reciprocal, so the reduced form is
reached directly; the integer kernel must agree with it on every matrix.
"""

from fractions import Fraction

from tropabel.linalg import clear_denominators, sign_normalize


def eliminate(m, ncols):
    """Gauss-Jordan elimination, in place, of the first ncols columns of the
    Fraction rows m; columns past ncols (an augmented part) ride along.

    Pivots are taken in column order, each from the first row at or below
    the current one with a nonzero entry, and scaled to 1.  Returns
    (pivots, sign, product): pivots[i] is the pivot column of row i, sign is
    the parity of the row swaps and product the product of the pivots
    before scaling, so a square matrix of full rank has determinant
    sign * product.
    """
    pivots = []
    sign, product = 1, Fraction(1)
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p = m[r][c]
        product *= p
        inv = 1 / p
        m[r] = [a * inv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots, sign, product


def fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rank(rows):
    if not rows:
        return 0
    return len(eliminate(fraction_rows(rows), len(rows[0]))[0])


def independent_rows(rows):
    if not rows:
        return []
    cols = [[Fraction(row[j]) for row in rows] for j in range(len(rows[0]))]
    return eliminate(cols, len(rows))[0]


def nullspace(rows, ncols):
    m = fraction_rows(rows)
    pivots = eliminate(m, ncols)[0]
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -m[pr][c]
        basis.append(sign_normalize(clear_denominators(v)[0]))
    return basis


def solve(rows, rhs):
    if not rows:
        return None
    ncols = len(rows[0])
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = eliminate(m, ncols)[0]
    if any(row[ncols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for pr, pc in enumerate(pivots):
        x[pc] = m[pr][ncols]
    return tuple(x)


def determinant(m):
    n = len(m)
    pivots, sign, product = eliminate(fraction_rows(m), n)
    if len(pivots) < n:
        return 0
    det = sign * product
    return int(det) if det.denominator == 1 else det


def inverse(m):
    """Inverse of a nonsingular square matrix, as rows of Fractions."""
    n = len(m)
    a = [[Fraction(x) for x in m[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if len(eliminate(a, n)[0]) < n:
        raise ValueError("matrix is singular")
    return [tuple(row[n:]) for row in a]
