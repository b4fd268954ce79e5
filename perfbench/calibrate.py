"""How fast the machine runs right now, measured by a fixed kernel.

The machine this benchmark was built on shares its CPUs with other tenants,
and its speed moves between levels about two times apart, for seconds at a
time and sometimes for an hour.  A timing taken at one level says nothing
about the program at the other.  The runner therefore times `kernel`, a
fixed piece of pure-Python work owned by this benchmark, next to every
operation, and scales the operation's time by REFERENCE_S / (kernel time):
a time is reported in seconds at the speed at which the kernel takes
REFERENCE_S.  No change to tropabel can change the kernel, so a faster or
slower program still shows in full.

The kernel does the kinds of work tropabel's time goes to: exact
Gauss-Jordan elimination over Fractions (linalg, cone), a loop over vertex
subsets with frozensets and dict lookups (divisor, flow) and a
breadth-first search over small integer vectors with a seen set
(semigroup).
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from time import perf_counter

REFERENCE_S = 0.005

_MATRIX = tuple(
    tuple(((3 * i + 5 * j + i * j) % 11) - 5 + (i == j) * 7 for j in range(8)) for i in range(7)
)
_ITEMS = tuple(range(10))
_WEIGHTS = {i: (7 * i) % 5 - 2 for i in _ITEMS}


def _eliminate():
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r, m[0][-1]


def _subsets():
    kept = 0
    for k in range(len(_ITEMS) + 1):
        for sub in combinations(_ITEMS, k):
            s = frozenset(sub)
            if sum(_WEIGHTS[i] for i in s) > 0 and 0 not in s:
                kept += 1
    return kept


def _search():
    start = (0, 0, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for step in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1)):
            v = tuple(a + b for a, b in zip(u, step))
            if min(v) >= -2 and sum(v) <= 9 and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen)


def kernel():
    """One fixed unit of work; returns a value that never changes."""
    return _eliminate(), _subsets(), _search()


EXPECTED = kernel()


def time_kernel():
    """Seconds one kernel call takes now; fails if the kernel's answer changed."""
    t0 = perf_counter()
    value = kernel()
    elapsed = perf_counter() - t0
    if value != EXPECTED:
        raise RuntimeError("calibration kernel gave a different answer")
    return elapsed
