"""Small exact linear-algebra kernel: rationals, integer lattices, Hermite form.

Vectors are tuples of ints (or Fractions where noted); matrices are tuples of
row tuples.  Everything is exact; floats never appear.

Rational elimination has one kernel, `_eliminate`: fraction-free
Gauss-Jordan on integer rows, whose every division is an exact `//`.  Rank,
nullspace, solve, inverse, the determinant and the greedy independent-row
choice all read its pivots; rows with Fraction entries are scaled to
integers on entry, and only `solve` builds Fractions, one per entry of its
answer.  Rationals cross the program's boundary through one codec:
`format_rational` writes "n" or "p/q", and `parse_rational` reads an int or
such a string back.  Values enter the divisor, polarization and metric
types through one gate, `exact_value`.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from .errors import ValidationError


def dot(u, v):
    return sum(map(mul, u, v))


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def is_zero(u):
    return all(a == 0 for a in u)


def primitive(vec):
    """Divide an integer vector by the gcd of its entries.

    The direction is preserved: rays of a cone are genuinely oriented, so no
    sign flip happens here (use sign_normalize for sign-ambiguous vectors).
    """
    g = 0
    for a in vec:
        g = gcd(g, abs(a))
    if g <= 1:
        return tuple(vec)
    return tuple(a // g for a in vec)


def sign_normalize(vec):
    """Primitive form with the first nonzero entry positive (kernel bases)."""
    v = primitive(vec)
    for a in v:
        if a != 0:
            return v if a > 0 else tuple(-x for x in v)
    return v


def clear_denominators(fracs):
    """(ints, den): den is the least positive integer making every entry of
    fracs integral, and ints are the entries times den."""
    fracs = [Fraction(x) for x in fracs]
    den = lcm(1, *(x.denominator for x in fracs))
    return tuple(x.numerator * (den // x.denominator) for x in fracs), den


def format_rational(q):
    """The text "n" for an integer, else "p/q" in lowest terms with the
    sign on p."""
    return str(Fraction(q))


def parse_rational(text):
    """The Fraction of an int, or of a string "n" or "p/q" with integers n,
    p and q != 0.  Anything else (floats, bools, "0.5", "1/0", "1/2/3")
    raises ValidationError."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str) and text.count("/") <= 1:
        try:
            return Fraction(*(int(p) for p in text.split("/")))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational {text!r}") from exc
    raise ValidationError(f"bad rational {text!r}")


def exact_value(x, integral=False):
    """The gate of every value a Divisor (integral), a Polarization or a
    MetricGraph is built from: an int, or unless `integral` a Fraction or a
    parse_rational string, returned as an int (integral) or a Fraction.
    bools, floats and anything else raise ValidationError, so a float never
    enters as its binary expansion or truncated to an int."""
    if type(x) is int:  # not a bool
        return x if integral else Fraction(x)
    if not integral:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str):
            return parse_rational(x)
    raise ValidationError(f"bad {'integer' if integral else 'rational'} {x!r}")


def _integer_rows(rows):
    """(int rows, scale): each row as a list of ints, multiplied by the
    least positive integer that clears its denominators, and the product
    of those multipliers.  Scaling a row by a nonzero number changes
    neither the rank, the nullspace, which rows are independent nor the
    solutions of an augmented system."""
    out, scale = [], 1
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        if den == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (den // x.denominator) for x in row])
            scale *= den
    return out, scale


def _eliminate(m, ncols):
    """Fraction-free Gauss-Jordan elimination, in place, of the first ncols
    columns of the integer rows m; columns past ncols (an augmented part)
    ride along.

    Pivots are taken in column order, each from the first row at or below
    the current one with a nonzero entry.  With p that pivot and prev the
    one before it (1 at the start), every other row becomes
    (p * row - f * pivot row) // prev, f being its entry in the pivot
    column (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22, 1968).  Each entry is then a
    minor of the input with the row swaps applied: a row below the pivots
    holds the minor on the pivot rows and columns bordered by its own row
    and the entry's column, and a pivot row holds, by Cramer's rule, the
    pivot minor with its own pivot column replaced by the entry's column.
    So every // is exact and no Fraction is built.

    Returns (pivots, sign, d): pivots[i] is the pivot column of row i, sign
    the parity of the row swaps and d the last pivot, the minor on the
    pivot rows and columns (1 if there is none).  Every pivot row ends with
    d at its pivot and 0 in the other pivot columns, so the reduced row
    echelon form is m / d, and a square integer matrix of full rank has
    determinant sign * d.
    """
    pivots = []
    sign, prev = 1, 1
    nrows = len(m)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                m[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, sign, prev


def rank(rows):
    """Rank over the rationals."""
    if not rows:
        return 0
    return len(_eliminate(_integer_rows(rows)[0], len(rows[0]))[0])


def independent_rows(rows):
    """Indices of the greedy maximal linearly independent subset of rows
    (each row kept when it is independent of the rows kept before it).

    These are the pivot columns of the transpose: a column is a pivot
    exactly when it is not a combination of the columns before it.
    """
    if not rows:
        return []
    cols = [list(col) for col in zip(*_integer_rows(rows)[0])]
    return _eliminate(cols, len(rows))[0]


def nullspace(rows, ncols):
    """Integer primitive basis of {x : rows @ x = 0}, sign-normalized.

    Returns a deterministic list (free columns in increasing order).  Free
    column c gives the kernel vector with d at c and minus row i's entry
    at row i's pivot column, which is d times the one read from the reduced
    form m / d.
    """
    m = _integer_rows(rows)[0]
    pivots, _, d = _eliminate(m, ncols)
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [0] * ncols
        v[c] = d
        for pr, pc in enumerate(pivots):
            v[pc] = -m[pr][c]
        basis.append(sign_normalize(v))
    return basis


def solve(rows, rhs):
    """One exact solution x of rows @ x = rhs, or None if inconsistent.

    Free variables are set to 0; entries are Fractions, x[c] being pivot
    row i's augmented entry over d when c is its pivot column.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    m = _integer_rows([[*row, b] for row, b in zip(rows, rhs)])[0]
    pivots, _, d = _eliminate(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    x = dict(zip(pivots, (row[ncols] for row in m)))
    return tuple(Fraction(x.get(c, 0), d) for c in range(ncols))


def hnf_transform(mat):
    """Row-style Hermite reduction: returns (H, U) with U @ mat = H, U unimodular.

    H is in echelon form with nonnegative pivots; zero rows of H sit at the
    bottom, so the matching rows of U span the left integer kernel of mat.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    h = [list(row) for row in mat]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        # chase the column to a single nonzero entry at row r
        while True:
            nz = [i for i in range(r, nrows) if h[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[piv] = h[piv], h[r]
            u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, nrows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < nrows and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-a for a in h[r]]
                u[r] = [-a for a in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == nrows:
                break
    return [tuple(row) for row in h], [tuple(row) for row in u]


def left_kernel_lattice(mat):
    """Basis of the saturated lattice {x in Z^m : x @ mat = 0}."""
    if not mat:
        return []
    h, u = hnf_transform(mat)
    return [sign_normalize(u[i]) for i in range(len(h)) if is_zero(h[i])]


def lattice_quotient(basis, n):
    """Coordinates on Z^n / U where U is a saturated lattice.

    basis: rows spanning U (rank s, saturated).  Returns (lift, pair) where
    lift maps Z^(n-s) isomorphically onto a complement of U in Z^n, and
    pair maps an ambient vector r to coordinates with
    lift(w) . r = w . pair(r); on the r vanishing on U, pair loses nothing.
    """
    s = len(basis)
    if s == 0:
        ident = lambda v: tuple(v)
        return ident, ident
    # column-style HNF via the row-style routine on the transpose: a
    # unimodular C (n x n) with basis @ C = [T | 0], T upper triangular
    # with the HNF pivots on its diagonal.  U is saturated iff T is
    # unimodular, that is iff every pivot is 1.  Replacing C[:, :s] by
    # C[:, :s] @ T^-1, to reach [I | 0], would change only the first s
    # rows of C^-1; lift and pair read only rows s..n-1, so T is not
    # inverted.
    bt = [tuple(basis[i][j] for i in range(s)) for j in range(n)]
    h, ct = hnf_transform(bt)  # ct @ bt = h: ct = C^T, and T^T = h[:s]
    if any(h[i][i] != 1 for i in range(s)):
        raise ValueError("lattice is not saturated")
    cinv_t = _int_inverse(ct)  # (C^T)^-1 = (C^-1)^T

    def lift(w):
        # x with x @ C = (0, w): x = (0, w) @ C^{-1}; row i of C^{-1} is
        # column i of (C^T)^{-1}.
        return tuple(sum(w[k - s] * cinv_t[j][k] for k in range(s, n)) for j in range(n))

    def pair(r):
        # rows s..n-1 of C^{-1} applied to r; the first s rows span U
        # (basis = [T | 0] @ C^{-1}), so they vanish on an r orthogonal to U
        return tuple(sum(cinv_t[j][k] * r[j] for j in range(n)) for k in range(s, n))

    return lift, pair


def determinant(m):
    """Determinant of a square matrix by elimination: an int for an integer
    matrix, sign * d from _eliminate.  Rows with Fraction entries are
    scaled to integers first, which multiplies the determinant by the
    product of the row scales; that product is divided back out."""
    n = len(m)
    a, scale = _integer_rows(m)
    pivots, sign, d = _eliminate(a, n)
    if len(pivots) < n:
        return 0
    if scale == 1:
        return sign * d
    det = Fraction(sign * d, scale)
    return det.numerator if det.denominator == 1 else det


def inverse(m):
    """Inverse of a nonsingular square matrix as (rows, den): integer rows
    and den > 0 the least common denominator, so m^-1 = rows / den.

    The integer kernel reduces [m | I], each row scaled to integers as a
    whole, to [d I | d m^-1]: row scaling leaves the solution of m X = I
    unchanged.  Dividing d and the right block by the gcd of d and all its
    entries, sign included, gives the least denominator.  The answer is
    certified by rows @ m == den * I with an explicit raise, which
    `python -O` keeps.
    """
    n = len(m)
    a = _integer_rows([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)])[0]
    pivots, _, d = _eliminate(a, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    g = gcd(d, *(x for row in a for x in row[n:]))
    if d < 0:
        g = -g
    rows = [tuple(x // g for x in row[n:]) for row in a]
    den = d // g
    cols = list(zip(*m))
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            if dot(row, col) != (den if i == j else 0):
                raise AssertionError("inverse certificate failed: rows @ m != den * I")
    return rows, den


def _int_inverse(m):
    """Inverse of a unimodular integer matrix, as integer rows."""
    rows, den = inverse(m)
    if den != 1:
        raise AssertionError("matrix is not unimodular")
    return rows
