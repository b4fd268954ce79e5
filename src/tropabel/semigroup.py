"""Monomial computations in the dual-lattice semigroup ring of a cone and in
its node extension obtained by adjoining a split variable pair with
x * y = chi^(relation covector).

Everything is decided at the level of exponents.  Each monomial carries its
valuation vector w: its values on the cone's extremal rays, in two blocks in
the split ring (one counting x, one counting y).  The relation pairs
nonnegatively with every ray, so divisibility is the componentwise
comparison of these vectors (in a normal affine monoid, divisibility is a
comparison of support forms) and no Groebner machinery is needed.
Generator lists come from one search over a generating set of the monoid.
It only takes steps that raise a valuation still short of its threshold, so
it ends by itself; its level cap only bounds the work.  A ray-wise symbolic
power is one such threshold, and an intersection of symbolic powers is a
chain of threshold searches, one power at a time, each started from the
generators found so far.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .cone import dual_monoid
from .errors import SearchBoundError, ValidationError
from .linalg import dot, vec_add

DEFAULT_SEARCH_BOUND = 12


@dataclass(frozen=True)
class MonomialRing:
    """Monomials over the dual monoid of a cone, optionally extended by a
    split pair x, y with x*y = chi^relation.

    rays: the cone's extremal rays (membership tests pair against them);
    relation: the integer covector tied to the split pair, or None for the
    plain semigroup ring.  The relation must lie in the dual monoid (pair
    nonnegatively with every ray), since x*y is a monomial of the ring.
    """

    ambient_dim: int
    rays: tuple
    relation: tuple = None

    def __post_init__(self):
        if self.relation is not None:
            for r in self.rays:
                if dot(self.relation, r) < 0:
                    raise ValidationError(
                        f"relation {tuple(self.relation)} pairs negatively with the ray "
                        f"{tuple(r)}: x*y would leave the monoid"
                    )

    @cached_property
    def monoid(self):
        """cone.dual_monoid of the ring's cone, computed once."""
        return dual_monoid(self.ambient_dim, self.rays)

    @cached_property
    def generators(self):
        """Monoid generating set of the chi-part, the Hilbert basis and the
        units, as cone.semigroup_generators gives it."""
        _, basis, units = self.monoid
        return tuple(sorted(basis + units))

    @cached_property
    def relation_values(self):
        """c_r = <relation, r> for each ray r (all >= 0)."""
        return tuple(dot(self.relation, r) for r in self.rays)

    def monomial(self, u, a=0, b=0):
        u = tuple(int(x) for x in u)
        a, b = int(a), int(b)
        if a < 0 or b < 0:
            raise ValidationError("negative split exponents")
        if (a or b) and self.relation is None:
            raise ValidationError("split exponents need a split-pair ring")
        if self.relation is not None:
            k = min(a, b)
            if k:
                u = tuple(x + k * y for x, y in zip(u, self.relation))
                a, b = a - k, b - k
        v = tuple(dot(u, r) for r in self.rays)
        if any(x < 0 for x in v):
            raise ValidationError(f"exponent {u} is outside the monoid")
        if self.relation is None:
            w = v
        else:
            c = self.relation_values
            w = tuple(x + a * y for x, y in zip(v, c)) + tuple(x + b * y for x, y in zip(v, c))
        return Monomial(self, u, a, b, w)

    def one(self):
        return self.monomial((0,) * self.ambient_dim)

    def x(self):
        return self.monomial((0,) * self.ambient_dim, a=1)

    def y(self):
        return self.monomial((0,) * self.ambient_dim, b=1)

    def ray_index(self, ray):
        """Position of an extremal ray among the ring's rays."""
        ray = tuple(ray)
        if ray not in self.rays:
            raise ValidationError(f"{ray} is not an extremal ray of the ring's cone")
        return self.rays.index(ray)

    @cached_property
    def monomial_generators(self):
        """Ring generating monomials: the chi-generators plus x and y."""
        gens = [self.monomial(u) for u in self.generators]
        if self.relation is not None:
            gens.append(self.x())
            gens.append(self.y())
        return tuple(gens)


@dataclass(frozen=True)
class Monomial:
    """Canonical form x^a y^b chi^u with min(a, b) = 0.

    w is the valuation vector: (<u,r> + a c_r)_r ++ (<u,r> + b c_r)_r in the
    split ring, with c_r = <relation, r>, and (<u,r>)_r in the plain ring.  It
    is unchanged by x*y -> chi^relation, adds under multiplication, and is
    nonnegative on every monomial.
    """

    ring: MonomialRing
    u: tuple
    a: int
    b: int
    w: tuple = field(compare=False, repr=False)

    def key(self):
        return (self.u, self.a, self.b)

    def __mul__(self, other):
        ring = self.ring
        if other.ring is not ring and other.ring != ring:
            raise ValidationError("ring mismatch")
        u = vec_add(self.u, other.u)
        a, b = self.a + other.a, self.b + other.b
        k = min(a, b)
        if k:
            u = tuple(x + k * y for x, y in zip(u, ring.relation))
            a, b = a - k, b - k
        return Monomial(ring, u, a, b, vec_add(self.w, other.w))

    def __pow__(self, n):
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def divides(self, other):
        """Exact divisibility in the quotient by x*y = chi^relation.

        The quotient exponent (du, da, db) lies in the extended monoid iff
        some integer shift j >= max(-da, -db) keeps du - j*relation in the
        chi-monoid.  Every c_r = <relation, r> is nonnegative, so the
        smallest shift j = -min(da, db) is the best one, and the test is
        <du, r> + min(da, db) c_r >= 0 on every ray r: both valuation blocks
        of other dominate those of self.
        """
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValidationError("ring mismatch")
        for x, y in zip(other.w, self.w):
            if x < y:
                return False
        return True

    def format(self):
        parts = []
        if self.a:
            parts.append(f"x^{self.a}" if self.a != 1 else "x")
        if self.b:
            parts.append(f"y^{self.b}" if self.b != 1 else "y")
        body = ",".join(str(c) for c in self.u)
        parts.append("χ{" + body + "}")
        return " ".join(parts)


def _minimalize(monomials):
    """Drop every monomial divisible by another one (proper or duplicate)."""
    uniq = []
    seen = set()
    for m in sorted(monomials, key=lambda m: m.key()):
        if m.key() not in seen:
            uniq.append(m)
            seen.add(m.key())
    out = []
    for i, m in enumerate(uniq):
        divisible = False
        for j, g in enumerate(uniq):
            if i != j and g.divides(m):
                if m.divides(g) and j > i:
                    continue  # mutual (unit multiple): keep the first
                divisible = True
                break
        if not divisible:
            out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """Finitely generated monomial ideal with minimalized generators."""

    ring: MonomialRing
    gens: tuple

    @staticmethod
    def of(ring, monomials):
        return MonomialIdeal(ring, _minimalize(tuple(monomials)))

    def contains(self, m):
        return any(g.divides(m) for g in self.gens)

    def equals(self, other):
        return all(other.contains(g) for g in self.gens) and all(
            self.contains(h) for h in other.gens
        )

    def format(self):
        return [g.format() for g in self.gens]


def _minimal_search(start, need, bound, what):
    """Minimal monomials above `start` whose valuations reach thresholds.

    need: (coordinate, threshold) pairs on the valuation vector w.  The
    members are the monomials m = start * q, q in the monoid, with
    m.w[i] >= t for each (i, t) in need; the answer is every member none of
    whose quotients by a ring generator is a member.  Of unit multiples,
    the first found is kept.

    A state short of a threshold is extended only by the ring generators
    that raise its first short coordinate.  Every minimal answer is reached
    that way: write it as start times generators; while a state p dividing
    it is short at i, the answer is not, so one of the remaining factors
    raises i (every generator has w >= 0).  Each step cuts the total
    deficit sum(max(0, t - w[i])) by at least one, so no word is longer
    than the deficit at `start` and the search ends by itself.  `bound`
    caps the word length only: a state that would need extending past it
    raises SearchBoundError.  Membership is upward closed, so a state that
    is not a member is never a multiple of a hit.
    """
    ring = start.ring
    rel = ring.relation
    need = [(i, t) for i, t in need if start.w[i] < t]
    # steps[k]: the generators raising the k-th short coordinate
    steps = [
        [(s.u, s.a, s.b, s.w) for s in ring.monomial_generators if s.w[i] > 0]
        for i, _ in need
    ]
    hits = []
    frontier = [(start.u, start.a, start.b, start.w)]
    seen = {start.key()}
    level = 0
    while frontier:
        nxt = []
        for state in frontier:
            u, a, b, w = state
            for k, (i, t) in enumerate(need):
                if w[i] < t:
                    break
            else:
                if not any(all(x >= y for x, y in zip(w, h[3])) for h in hits):
                    hits.append(state)
                continue
            if level >= bound:
                raise SearchBoundError(what, bound)
            for su, sa, sb, sw in steps[k]:
                nu, na, nb = vec_add(u, su), a + sa, b + sb
                if na and nb:  # x * y = chi^relation
                    nu, na, nb = vec_add(nu, rel), na - 1, nb - 1
                key = (nu, na, nb)
                if key not in seen:
                    seen.add(key)
                    nxt.append((nu, na, nb, vec_add(w, sw)))
        frontier = nxt
        level += 1
    return [Monomial(ring, u, a, b, w) for u, a, b, w in hits]


def _deficit(m, target):
    return sum(t - x for x, t in zip(m.w, target.w) if x < t)


def _join_search(ring, g, h, bound):
    """Minimal common multiples of g and h: the multiples of one of them
    whose valuations reach the other's (h | m iff m.w >= h.w), walking up
    from the one with the smaller deficit."""
    if _deficit(h, g) < _deficit(g, h):
        g, h = h, g
    return _minimal_search(g, enumerate(h.w), bound, "ideal intersection")


def intersect_ideals(ideal_a, ideal_b, bound=DEFAULT_SEARCH_BOUND):
    """Generators of the intersection, by pairwise join searches."""
    if ideal_a.ring != ideal_b.ring:
        raise ValidationError("ring mismatch")
    ring = ideal_a.ring
    cands = []
    for g in ideal_a.gens:
        for h in ideal_b.gens:
            cands.extend(_join_search(ring, g, h, bound))
    result = MonomialIdeal.of(ring, cands)
    for m in result.gens:
        if not (ideal_a.contains(m) and ideal_b.contains(m)):
            raise AssertionError("intersection generator lies outside an ideal")
    return result


@dataclass(frozen=True)
class BoundaryFunctionals:
    """The two dual covectors attached to a subdivided edge of an admissible
    pair: the lengths of its downstream half (u') and of its upstream half
    (u'').  Their sum is the edge's coordinate functional, and on every
    extremal ray at least one of them vanishes."""

    edge: str
    upstream_flow: int
    downstream_flow: int
    u_prime: tuple
    u_second: tuple


def boundary_functionals(abel_cone, e0):
    """Covectors u' and u'' of a subdivided edge e0 of an AbelCone's pair,
    over the pair's edges, read from the cone's rows: they are the inverse
    rows (pair_rows) of e0's downstream and upstream halves, the upstream
    half carrying one unit of flow less.

    The rows certify that the two sum to e0's coordinate functional and
    are nonnegative on the cone; what is certified here is that on every
    ray of the cone at least one of them vanishes.
    """
    pair, rows = abel_cone.provenance, abel_cone.rows
    if e0 not in pair.eset:
        raise ValidationError(f"{e0} is not in the subdivided set")
    length = dict(zip(rows.sub.result.edge_ids, rows.inverse_rows))
    ha, hb = rows.sub.halves[e0]
    flow = pair.flow.flow_map
    up, down = (ha, hb) if flow[hb] == flow[ha] + 1 else (hb, ha)
    out = BoundaryFunctionals(e0, flow[up], flow[down], length[down], length[up])
    for r in abel_cone.cone.rays:
        split = abel_cone.split_point(r)
        if split[down] != 0 and split[up] != 0:
            raise AssertionError("neither functional vanishes on a ray")
    return out


def node_ring(pair, e0):
    """The split-pair ring of an admissible pair at one of its base edges:
    chi-monomials over the pair's cone, x and y tied by the coordinate
    functional of e0."""
    from .abelfan import merged_cone

    g = pair.base
    idx = {e: i for i, e in enumerate(g.edge_ids)}
    if e0 not in idx:
        raise ValidationError(f"unknown edge {e0!r}")
    ac = merged_cone(pair)
    rel = [0] * len(g.edge_ids)
    rel[idx[e0]] = 1
    return MonomialRing(len(g.edge_ids), ac.cone.rays, tuple(rel)), ac


def symbolic_power_membership(ring, ray, n, m):
    """Monomial membership in the n-th symbolic power at an extremal ray:
    u(ray) >= (n - b) * relation(ray)."""
    if ring.relation is None:
        raise ValidationError("symbolic powers live in the split-pair ring")
    c = dot(ring.relation, ray)
    return dot(m.u, ray) >= (n - m.b) * c


def _symbolic_power_chain(ring, powers, bound):
    """Generators of the intersection of the n-th symbolic powers at the
    given (ray, n) pairs: start with gens = [one]; for each (ray, n), gens
    becomes the minimalized union over g in gens of the threshold search
    from g (the proof is in node_power_intersection).  `bound` caps each
    search's word length.  Every generator is checked against every power's
    symbolic_power_membership by an explicit raise.
    """
    nr = len(ring.rays)
    gens = [ring.one()]
    for ray, n in powers:
        k = ring.ray_index(ray)
        need = [(nr + k, n * ring.relation_values[k])]
        gens = _minimalize(
            [m for g in gens for m in _minimal_search(g, need, bound, "symbolic power saturation")]
        )
    for g in gens:
        for ray, n in powers:
            if not symbolic_power_membership(ring, ray, n, g):
                raise AssertionError("symbolic power generator fails the membership rule")
    return MonomialIdeal(ring, tuple(gens))


def symbolic_power_ideal(ring, ray, n, bound=DEFAULT_SEARCH_BOUND):
    """Generator list of the n-th symbolic power at an extremal ray.

    A monomial belongs iff u(ray) + b * relation(ray) >= n * relation(ray),
    which is its second-block valuation at the ray reaching n * c: the
    one-power case of node_power_intersection's chain, one threshold search
    from one.  `bound` caps the search's word length.
    """
    if ring.relation is None:
        raise ValidationError("symbolic powers live in the split-pair ring")
    if n < 0:
        raise ValidationError(f"a symbolic power needs an exponent n >= 0, got {n}")
    return _symbolic_power_chain(ring, [(ray, n)], bound)


def ray_power_intersection(pair, e0, bound=DEFAULT_SEARCH_BOUND):
    """node_power_intersection on the node ring of (pair, e0)."""
    ring, ac = node_ring(pair, e0)
    return node_power_intersection(ring, ac, e0, bound=bound)


def node_power_intersection(ring, ac, e0, bound=DEFAULT_SEARCH_BOUND):
    """Intersection over the extremal rays of the ray-wise symbolic powers,
    with the closed form verified two-sidedly, on the (ring, AbelCone) that
    node_ring gives for the cone's pair at e0.

    For a subdivided edge the exponents split by which boundary functional
    vanishes on the ray, and the closed form is
    (y)^upstream * (y, chi^u'') ; for an unsubdivided edge every ray carries
    the plain flow exponent and the closed form is (y)^flow(e0).
    The ring must be the cone's ring at e0: its rays are the cone's and its
    relation is e0's coordinate functional.

    The intersection is one chain of threshold searches over the powers
    (_symbolic_power_chain): no power's generator list is built and no
    pairwise join is searched.  The n-th symbolic power I at the k-th ray is
    a threshold ideal: it holds every monomial m with m.w[nr + k] >= n * c_k
    (nr rays, c_k the relation's value at the ray).  Starting from [one],
    each step replaces the generators of the ideal J found so far by the
    minimalized union over g in gens(J) of the threshold search from g.
    This generates J ∩ I: a member of both is g * q for some g, so each
    minimal one is a minimal member of I above some g, which the search
    from g returns, and each returned monomial lies in J and in I.

    `bound` caps each search's word length, and the chain raises
    SearchBoundError only where the search of one power from one, that of
    symbolic_power_ideal, raises too.  The searches from g and from one
    extend a short state by the same generators, those raising w[nr + k],
    and a short state g * q is reached at the same breadth-first level as q
    is from one.  The states of a shortest path to either are g * p and p
    for the prefixes p of a word of q, so p divides q; as w >= 0 on every
    monomial, p is short when g * p is, and g * p is short when g * q is.
    So a short state at level `bound` above g, where the search from g
    raises, gives a short q at level `bound` from one, where the search of
    that power on its own raises.
    Returns (intersection ideal, closed-form ideal).
    """
    pair = ac.provenance
    idx = {e: i for i, e in enumerate(pair.base.edge_ids)}
    if e0 not in idx:
        raise ValidationError(f"unknown edge {e0!r}")
    relation = tuple(int(i == idx[e0]) for i in range(len(idx)))
    if ring.rays != ac.cone.rays or ring.relation != relation:
        raise ValidationError(f"the ring is not the node ring of the cone at {e0}")
    rays = ac.cone.rays
    if e0 in pair.eset:
        bf = boundary_functionals(ac, e0)
        n_s, n_t = bf.upstream_flow, bf.downstream_flow
        powers = []
        for r in rays:
            if dot(bf.u_prime, r) == 0 and dot(bf.u_second, r) == 0:
                continue  # relation vanishes there, the power is the ring
            if dot(bf.u_prime, r) == 0:
                if n_t > 0:
                    powers.append((r, n_t))
            elif dot(bf.u_second, r) == 0:
                if n_s > 0:
                    powers.append((r, n_s))
        rhs_gens = [ring.y() ** (n_s + 1), (ring.y() ** n_s) * ring.monomial(bf.u_second)]
    else:
        n = pair.flow.flow_map[e0]
        powers = [(r, n) for r in rays] if n else []
        rhs_gens = [ring.y() ** n]
    lhs = _symbolic_power_chain(ring, powers, bound)
    rhs = MonomialIdeal.of(ring, rhs_gens)
    if not lhs.equals(rhs):
        raise AssertionError("two-sided symbolic-power identity failed")
    return lhs, rhs


def model_ring(t):
    """k[x, y, u]/(x y - u^t): the single-ray ring with relation (t,)."""
    return MonomialRing(1, ((1,),), (t,))


def model_symbolic_power(t, m):
    """Symbolic power of (y, u) in the model ring, the x-saturation of the
    ordinary power (y, u)^m; returns (ideal, membership predicate).

    A monomial has valuations w = (s + a t, s + b t) for x^a y^b u^s.  A
    power of x raises only w[0], and y^i u^(m - i) has w[1] = m + i(t - 1)
    >= m, so some x^k times the monomial lies in (y, u)^m iff w[1] >= m:
    the minimal monomials of one threshold search (_minimal_search).  No
    word of that search is longer than the deficit of 1, which is m, so the
    bound m never stops it early.
    """
    if t < 1:
        raise ValidationError(f"the model ring needs a relation exponent t >= 1, got {t}")
    if m < 0:
        raise ValidationError(f"a symbolic power needs an exponent n >= 0, got {m}")
    ring = model_ring(t)
    gens = _minimal_search(ring.one(), [(1, m)], m, "model symbolic power")
    return MonomialIdeal.of(ring, gens), lambda mono: mono.w[1] >= m
