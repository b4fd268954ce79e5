"""The quasistable-first walk of point location, kept as the oracle of the
lattice-first walk in abelfan._lattice_hits.

Each reached edge set E's quasistable pseudo-divisors come from the
per-edge-set kernel quasistable_with_edge_set, which runs the cut test on
every window candidate; only then is each quasistable D's lattice solved.
The walk order, the charging of candidate checks and the certificates are
those of the library's walk, so the two find the same hits in the same
order and count the same candidate checks.
"""

from tropabel import abelfan
from tropabel.abelfan import _certified_pair, _EdgeSetSolve
from tropabel.divisor import nondisconnecting_edge_sets, quasistable_with_edge_set


def quasistable_first_hits(g, v0, pol, d0, ipoint, work):
    """Every certified (pair, rows) whose open cone holds the integer point,
    found by proving each candidate quasistable before its lattice solve."""
    for eset in reversed(list(nondisconnecting_edge_sets(g))):
        solve = None
        for pd in quasistable_with_edge_set(g, eset, v0, pol, work):
            if solve is None:
                solve = _EdgeSetSolve(g, pd.subdivision, ipoint)
            target = {v: pd.divisor[v] - d0[v] for v in g.vertex_ids}
            target.update((x, -1) for x in pd.subdivision.exceptional)
            for flow in solve.flows(target):
                work.charge("lattice points")
                if flow is not None:
                    yield _certified_pair(g, pd, solve.basis, flow, d0, ipoint)


def oracle_locate(g, v0, pol, d0, point, check_unique=False, cap=1 << 20):
    """abelfan._locate through the quasistable-first walk: (pair, rows,
    split, work counts)."""
    lattice_first = abelfan._lattice_hits
    abelfan._lattice_hits = quasistable_first_hits
    try:
        return abelfan._locate(g, v0, pol, d0, point, check_unique, cap)
    finally:
        abelfan._lattice_hits = lattice_first
