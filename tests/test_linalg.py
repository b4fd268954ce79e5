"""The exact linear-algebra kernel and the rational codec, checked against
definitions and the Fraction Gauss-Jordan oracle on seeded random matrices
and on every matrix the `ideal` and `locate` workloads eliminate, plus
guards that keep floats and true division out of the library and its
modules out of each other's private names."""

import ast
import random
import re
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from tropabel import linalg
from tropabel.abelfan import locate_point
from tropabel.errors import ValidationError
from tropabel.linalg import (
    clear_denominators,
    determinant,
    dot,
    exact_value,
    format_rational,
    independent_rows,
    inverse,
    nullspace,
    parse_rational,
    rank,
    solve,
    vec_add,
    vec_sub,
)
from tropabel.semigroup import ray_power_intersection

import linalg_oracle as oracle
from conftest import ideal_cases, parallel_instance

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
        rows, den = inverse(m)
        assert den > 0 and all(type(x) is int for row in rows for x in row)
        assert matmul(rows, m) == [[den * int(i == j) for j in range(n)] for i in range(n)]
    assert invertible and singular


def test_det_int_matches_cofactor_expansion():
    for m, n in matrices(5, square=True):
        if n <= 4:
            assert determinant(m) == cofactor_det(m)


def test_vector_kernels_truncate_to_the_shorter_and_stay_exact():
    half = Fraction(1, 2)
    assert dot((1, 2, 3), (4, 5)) == 14
    assert dot((half, 3), (half, half)) == Fraction(7, 4)
    assert dot((), ()) == 0
    assert vec_add((1, 2, 3), (10, 20)) == (11, 22)
    assert vec_sub((half, 1), (1, half, 9)) == (-half, half)
    assert vec_add((), (1,)) == ()


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


def test_no_floats_and_no_true_division_in_the_library():
    """Exact arithmetic: no float literal, no float() call and no true
    division anywhere in the library; elimination divides with exact //."""
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offences.append(f"float literal at {where}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                offences.append(f"float() call at {where}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                offences.append(f"true division at {where}")
    assert offences == []


def test_integer_matrices_build_no_fraction(monkeypatch):
    """rank, independent_rows, nullspace, inverse and determinant run on
    integer matrices with linalg.Fraction raising, and still agree with the
    oracle."""

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built inside linalg")

    def answers(m, ncols):
        out = [rank(m), independent_rows(m), nullspace(m, ncols)]
        if len(m) == ncols:
            out.append(determinant(m))
            if rank(m) == ncols:
                out.append(inverse(m))
        return out

    cases = list(matrices(9))
    expected = []
    for m, ncols in cases:
        want = [oracle.rank(m), oracle.independent_rows(m), oracle.nullspace(m, ncols)]
        if len(m) == ncols:
            want.append(oracle.determinant(m))
            if want[0] == ncols:
                want.append(clear_inverse(oracle.inverse(m)))
        expected.append(want)
    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    assert [answers(m, ncols) for m, ncols in cases] == expected


def clear_inverse(fraction_rows):
    """The oracle's Fraction inverse in the (rows, den) form."""
    n = len(fraction_rows)
    ints, den = clear_denominators([x for row in fraction_rows for x in row])
    return [tuple(ints[i * n:(i + 1) * n]) for i in range(n)], den


def oracle_matrices(seed, count):
    """(rows, ncols, k): seeded matrices of 0 to 6 rows and columns, to be
    eliminated on their first k columns (k < ncols leaves an augmented
    part).  Besides random_matrix's zero matrices and dependent rows, some
    columns are zeroed, some matrices are sparse (so that pivots need row
    swaps) and some have rational entries."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        m = random_matrix(rng, nrows, ncols)
        if rng.random() < 0.3:
            m = [[x if rng.random() < 0.4 else 0 for x in row] for row in m]
        if ncols and rng.random() < 0.3:
            j = rng.randrange(ncols)
            m = [row[:j] + [0] + row[j + 1:] for row in m]
        if rng.random() < 0.3:
            m = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in m]
        k = rng.randint(0, ncols) if rng.random() < 0.3 else ncols
        yield m, ncols, k


def assert_kernel_agrees(m, k):
    """The integer kernel on m (scaled to integers) against the Fraction
    oracle on m, both on the first k columns: same pivots and sign, pivot
    rows equal to the oracle's reduced rows times d, and the other rows
    nonzero multiples of the oracle's.  On an integer matrix every row is
    exactly d times the oracle's and d is the oracle's pivot product."""
    ints, scale = linalg._integer_rows(m)
    fracs = oracle.fraction_rows(m)
    pivots, sign, d = linalg._eliminate(ints, k)
    o_pivots, o_sign, product = oracle.eliminate(fracs, k)
    assert (pivots, sign) == (o_pivots, o_sign)
    assert all(type(x) is int for row in ints for x in row)
    if scale == 1:
        assert d == product
        assert ints == [[d * x for x in row] for row in fracs]
        return
    for i, (row, o_row) in enumerate(zip(ints, fracs)):
        if i < len(pivots):
            assert [Fraction(x, d) for x in row] == o_row
        else:
            j = next((j for j, x in enumerate(o_row) if x), None)
            ratio = Fraction(row[j], o_row[j]) if j is not None else 1
            assert ratio and row == [ratio * x for x in o_row]


def assert_routes_agree(rng, m, ncols):
    """Every public route of the kernel against the oracle's."""
    assert rank(m) == oracle.rank(m)
    assert independent_rows(m) == oracle.independent_rows(m)
    assert nullspace(m, ncols) == oracle.nullspace(m, ncols)
    rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in m]
    assert solve(m, rhs) == oracle.solve(m, rhs)
    if len(m) != ncols:
        return
    assert determinant(m) == oracle.determinant(m)
    try:
        expected = oracle.inverse(m)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
        return
    assert inverse(m) == clear_inverse(expected)


def test_integer_kernel_agrees_with_the_fraction_oracle():
    """1,200 seeded matrices, with every case the generator promises seen:
    empty and zero matrices, zero columns, dependent rows, row swaps,
    augmented columns and rational entries."""
    rng = random.Random(11)
    seen = set()
    for m, ncols, k in oracle_matrices(10, 1200):
        pivots, sign, _ = oracle.eliminate(oracle.fraction_rows(m), k)
        seen |= {
            "no rows" if not m else None,
            "no columns" if not ncols else None,
            "zero column" if m and any(not any(c) for c in zip(*m)) else None,
            "dependent rows" if len(pivots) < len(m) and k == ncols else None,
            "row swap" if sign < 0 else None,
            "augmented" if k < ncols else None,
            "rational" if any(Fraction(x).denominator > 1 for row in m for x in row) else None,
        }
        assert_kernel_agrees(m, k)
        assert_routes_agree(rng, m, ncols)
    seen.discard(None)
    assert seen == {
        "no rows", "no columns", "zero column", "dependent rows", "row swap", "augmented", "rational"
    }


def _captured_matrices(monkeypatch, run):
    """Copies of every (rows, ncols) that linalg._eliminate is handed while
    `run` runs."""
    captured = []
    real = linalg._eliminate

    def spy(m, ncols):
        captured.append(([list(row) for row in m], ncols))
        return real(m, ncols)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    run()
    monkeypatch.setattr(linalg, "_eliminate", real)
    return captured


def _ideal_pass():
    cases = ideal_cases()
    return lambda: [ray_power_intersection(*case) for case in cases]


def _locate_pass():
    """Seeded positive rational points located on theta with D0 = (8, -8)
    and mu = 0, the `locate` benchmark's instance."""
    g, v0, mu, d0 = parallel_instance(3, 8, 0)
    rng = random.Random(12)
    points = [
        {e: Fraction(rng.randint(1, 1000), rng.randint(1, 8)) for e in g.edge_ids} for _ in range(12)
    ]
    return lambda: [locate_point(g, v0, mu, d0, p) for p in points]


@pytest.mark.parametrize("make_pass", [_ideal_pass, _locate_pass], ids=["ideal", "locate"])
def test_kernel_agrees_with_the_oracle_on_the_workloads_matrices(monkeypatch, make_pass):
    """Every matrix that one pass of the `ideal` or of the `locate` workload
    eliminates gives the oracle's pivots, sign and reduced form."""
    captured = _captured_matrices(monkeypatch, make_pass())
    assert captured
    for m, ncols in captured:
        assert_kernel_agrees(m, ncols)


def test_ideal_pass_builds_no_fraction(monkeypatch):
    """One pass of the 63 `ideal` cases constructs no Fraction at all, so
    none inside linalg; with the Fraction kernel the same pass built
    15,821."""
    built = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    run = _ideal_pass()
    monkeypatch.setattr(Fraction, "__new__", counting)
    run()
    monkeypatch.undo()
    assert built == []


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


def test_every_library_function_has_a_library_caller():
    """No test-only code in the library.  Each function of src/tropabel is
    referenced (as a name or an attribute) somewhere in src/ outside its
    own body and __init__.py, or is exported from __init__.py, or is named
    in perfbench/, whose tracer and workloads reach the library by name.
    A method counts as used only through an attribute reference (.name) in
    src/ outside its own body, or in perfbench/: a local variable of the
    same name is no caller.  Dunder methods are exempt."""
    init = ast.parse((SRC / "__init__.py").read_text())
    allowed = {a.asname or a.name for n in ast.walk(init) if isinstance(n, ast.ImportFrom) for a in n.names}
    bench_attrs = set()
    for path in (SRC.parents[1] / "perfbench").glob("*.py"):
        allowed |= set(re.findall(r"\w+", path.read_text()))
        bench_attrs |= {n.attr for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Attribute)}
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defs += [(path.name, n, False) for n in tree.body if isinstance(n, ast.FunctionDef)]
        defs += [
            (path.name, m, True)
            for n in tree.body
            if isinstance(n, ast.ClassDef)
            for m in n.body
            if isinstance(m, ast.FunctionDef)
        ]
        refs += [
            (path.name, getattr(n, "id", None) or n.attr, n.lineno, isinstance(n, ast.Attribute))
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
        ]

    def referenced(name, fn, method):
        if method and fn.name in bench_attrs or not method and fn.name in allowed:
            return True
        return any(
            ref == fn.name
            and (attr or not method)
            and not (where == name and fn.lineno <= line <= fn.end_lineno)
            for where, ref, line, attr in refs
        )

    unused = [
        f"{name}:{fn.lineno} {fn.name}"
        for name, fn, method in defs
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and not referenced(name, fn, method)
    ]
    assert unused == []


# public method names that several classes define on purpose; any other
# name would let a test-only method pass the guard above through a library
# method of the same name
SHARED_METHOD_NAMES = {"canonical_key", "degree", "format", "key", "of", "split_point", "to_json"}


def test_public_method_names_are_defined_once():
    """The library-caller guard matches by name, so a test-only method could
    hide behind another class's method of the same name: each public method
    name is defined in one class of src/tropabel, apart from the listed
    ones."""
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        owners.setdefault(m.name, []).append(f"{path.name}:{node.name}")
    shared = {name for name, where in owners.items() if len(where) > 1}
    assert shared == SHARED_METHOD_NAMES, {n: owners[n] for n in shared ^ SHARED_METHOD_NAMES}
