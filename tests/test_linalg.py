"""The exact linear-algebra kernel and the rational codec, checked against
definitions on seeded random matrices, plus guards that keep floats and
true division out of the library and its modules out of each other's
private names."""

import ast
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from tropabel.errors import ValidationError
from tropabel.linalg import (
    _det_int,
    clear_denominators,
    exact_value,
    format_rational,
    independent_rows,
    inverse,
    nullspace,
    parse_rational,
    rank,
    solve,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "tropabel"


def random_matrix(rng, nrows, ncols):
    """Integer entries in [-3, 3], with some rows copied as combinations of
    earlier ones and some matrices zero, so that singular cases occur."""
    if rng.random() < 0.1:
        return [[0] * ncols for _ in range(nrows)]
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([rng.randint(-3, 3) for _ in range(ncols)])
    return rows


def matrices(seed, count=300, square=False):
    rng = random.Random(seed)
    for _ in range(count):
        nrows = rng.randint(0, 6)
        ncols = nrows if square else rng.randint(0, 6)
        yield random_matrix(rng, nrows, ncols), ncols


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def cofactor_det(m):
    """Leibniz expansion: sum over permutations of signed products."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def greedy_rows(rows):
    """The definition: keep a row when it raises the rank of the rows kept."""
    chosen = []
    for i in range(len(rows)):
        if rank([rows[j] for j in chosen] + [rows[i]]) > len(chosen):
            chosen.append(i)
    return chosen


def test_nullspace_is_the_kernel_and_rank_nullity_holds():
    for m, ncols in matrices(1):
        basis = nullspace(m, ncols)
        for v in basis:
            assert all(isinstance(x, int) for x in v) and any(v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
        assert rank(m) + len(basis) == ncols
        if basis:
            assert rank(basis) == len(basis)


def test_solve_solves_or_proves_inconsistent():
    rng = random.Random(2)
    for m, ncols in matrices(3):
        if not m:
            assert solve(m, []) is None
            continue
        if rng.random() < 0.5:
            x0 = [rng.randint(-3, 3) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in m]
        else:
            rhs = [rng.randint(-3, 3) for _ in m]
        x = solve(m, rhs)
        if x is None:
            # inconsistent exactly when the augmented matrix has larger rank
            assert rank([row + [b] for row, b in zip(m, rhs)]) > rank(m)
        else:
            assert [sum(a * v for a, v in zip(row, x)) for row in m] == rhs


def test_inverse_times_matrix_is_identity_or_singular_raises():
    invertible = singular = 0
    for m, n in matrices(4, square=True):
        if rank(m) < n:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
            continue
        invertible += 1
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert matmul(inverse(m), m) == ident
    assert invertible and singular


def test_det_int_matches_cofactor_expansion():
    for m, n in matrices(5, square=True):
        if n <= 4:
            assert _det_int(m) == cofactor_det(m)


def test_independent_rows_match_the_greedy_definition():
    for m, _ in matrices(6):
        chosen = independent_rows(m)
        assert chosen == greedy_rows(m)
        assert len(chosen) == rank(m)


def test_clear_denominators_is_the_least_common_denominator():
    rng = random.Random(7)
    for _ in range(200):
        fracs = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(0, 5))]
        ints, den = clear_denominators(fracs)
        assert all(isinstance(i, int) for i in ints)
        assert [Fraction(i, den) for i in ints] == fracs
        # no smaller positive multiplier makes every entry integral
        assert all(any((f * d).denominator != 1 for f in fracs) for d in range(1, den))


def test_rational_codec_roundtrip():
    rng = random.Random(8)
    for _ in range(300):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        text = format_rational(q)
        assert parse_rational(text) == q
        assert ("/" in text) == (q.denominator != 1)
    assert parse_rational(7) == 7 and parse_rational("-3/6") == Fraction(-1, 2)


@pytest.mark.parametrize("bad", [0.1, 0.5, True, None, "0.5", "1/0", "x", "1/2/3", "", "5/", "1e3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValidationError, match="bad rational"):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [0.5, -1.0, True, False, Fraction(3), "3", None])
def test_exact_value_rejects_non_integers(bad):
    """A divisor value is an int: a float is not truncated, a bool, a
    Fraction or a string is not converted."""
    with pytest.raises(ValidationError, match="bad integer"):
        exact_value(bad, integral=True)


@pytest.mark.parametrize("bad", [0.1, 0.5, True, None, "0.5", "1/0", "x", [1, 2]])
def test_exact_value_rejects_non_rationals(bad):
    """A rational value is an int, a Fraction or a codec string; a float
    never enters as its binary expansion."""
    with pytest.raises(ValidationError, match="bad rational"):
        exact_value(bad)


def test_exact_value_accepts_exact_values():
    assert exact_value(-4, integral=True) == -4
    assert type(exact_value(3)) is Fraction and exact_value(3) == 3
    assert exact_value(Fraction(-2, 6)) == Fraction(-1, 3)
    assert exact_value("-2/6") == Fraction(-1, 3)


def _kernel_lines():
    tree = ast.parse((SRC / "linalg.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_eliminate")
    return fn.lineno, fn.end_lineno


def test_no_floats_and_one_division_in_the_library():
    """Exact arithmetic: no float literal, no float() call, and the only
    true division is the pivot reciprocal in linalg._eliminate."""
    lo, hi = _kernel_lines()
    divisions = []
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offences.append(f"float literal at {where}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                offences.append(f"float() call at {where}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                divisions.append((path.name, node.lineno))
    offences += [
        f"true division at {name}:{line}"
        for name, line in divisions
        if not (name == "linalg.py" and lo <= line <= hi)
    ]
    assert offences == []
    assert len(divisions) == 1


def test_no_module_imports_another_modules_private_names():
    """A name with a leading underscore is private to its module: no
    module of the library imports one from another of its modules."""
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("tropabel"):
                continue
            offences += [
                f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offences == []
