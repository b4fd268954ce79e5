"""Answer checks for the benchmark, written apart from tropabel.

Every check recomputes its property from the raw data of an answer (edge
ends, flow values, orientations, divisor values, lengths, rays, exponent
vectors) with the small exact routines below, and raises CheckFailed.  No
check uses `assert`, so `python -O` keeps them, and none compares against
stored output.
"""

import math
from fractions import Fraction


class CheckFailed(Exception):
    """An answer of the program failed an independent check."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- graphs


def subdivision_ends(ends, eset):
    """Edge ends of the E-subdivision.

    tropabel's output format names the halves of edge e as e:a (from the
    first endpoint to the inserted vertex x:e) and e:b (from x:e to the
    second endpoint); unsubdivided edges keep their ids.
    """
    out = {}
    for e, (a, b) in ends.items():
        if e in eset:
            x = f"x:{e}"
            out[f"{e}:a"] = (a, x)
            out[f"{e}:b"] = (x, b)
        else:
            out[e] = (a, b)
    return out


def is_connected(vertices, edge_ends):
    vertices = list(vertices)
    if not vertices:
        return True
    adj = {v: [] for v in vertices}
    for a, b in edge_ends:
        adj[a].append(b)
        adj[b].append(a)
    seen = {vertices[0]}
    todo = [vertices[0]]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(vertices)


def _quotient_arcs(vertices, sub_ends, phi, orient):
    """Arcs between the classes of the zero-flow edges, or None when a
    positive edge joins two vertices of one class."""
    parent = {v: v for v in vertices}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e, (a, b) in sub_ends.items():
        if phi[e] == 0:
            ra, rb = root(a), root(b)
            if ra != rb:
                parent[ra] = rb
    arcs = []
    for e in sub_ends:
        if phi[e] > 0:
            s, t = orient[e]
            rs, rt = root(s), root(t)
            if rs == rt:
                return None
            arcs.append((rs, rt))
    return {root(v) for v in vertices}, arcs


def flow_is_acyclic(vertices, sub_ends, phi, orient):
    """No directed cycle of positive edges once zero edges are contracted
    (Kahn's algorithm on the quotient digraph)."""
    quotient = _quotient_arcs(vertices, sub_ends, phi, orient)
    if quotient is None:
        return False
    nodes, arcs = quotient
    indeg = {n: 0 for n in nodes}
    out = {n: [] for n in nodes}
    for s, t in arcs:
        out[s].append(t)
        indeg[t] += 1
    ready = [n for n in nodes if indeg[n] == 0]
    done = 0
    while ready:
        n = ready.pop()
        done += 1
        for t in out[n]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    return done == len(nodes)


# ------------------------------------------------------- exact linear algebra


def rank(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def solve_unique(rows, rhs, wanted):
    """Solve rows * z = rhs exactly and return the values of the columns in
    `wanted`, which must be determined uniquely; None if inconsistent."""
    ncols = len(rows[0])
    mat = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    if any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in mat[r:]):
        return None
    free = [c for c in range(ncols) if c not in pivots]
    out = {}
    for c in wanted:
        require(c in pivots, "half-length not determined by the cycle equations")
        row = mat[pivots.index(c)]
        require(all(row[f] == 0 for f in free), "half-length depends on a free variable")
        out[c] = row[-1]
    return out


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# ------------------------------------------------------ located divisors


def check_located(ends, v0, mu, d0, lengths, eset, phi, orient, divisor, split):
    """Check one located answer (E, phi, D, half-lengths) on a metric graph.

    ends: base edge -> (tail, head); mu, d0: vertex values on the base
    graph; lengths: base edge -> positive Fraction; phi, orient, divisor and
    split are the answer's flow values, flow orientations (positive edges),
    divisor values and subdivision edge lengths.
    """
    base_vertices = sorted({v for pair in ends.values() for v in pair} | set(d0) | set(mu))
    sub_ends = subdivision_ends(ends, eset)
    vertices = base_vertices + sorted(f"x:{e}" for e in eset)
    require(set(phi) == set(sub_ends), "flow is not on the E-subdivision")
    require(set(split) == set(sub_ends), "split is not on the E-subdivision")
    require(set(divisor) == set(vertices), "divisor is not on the E-subdivision")

    # half-lengths are positive and add up to each edge's length
    for e, ell in lengths.items():
        if e in eset:
            ha, hb = split[f"{e}:a"], split[f"{e}:b"]
            require(ha > 0 and hb > 0, f"half-lengths of {e} are not positive")
            require(ha + hb == ell, f"half-lengths of {e} do not sum to its length")
        else:
            require(split[e] == ell, f"length of {e} changed")

    # flow values and orientations
    for e, (a, b) in sub_ends.items():
        require(phi[e] >= 0, f"negative flow on {e}")
        if phi[e] > 0:
            require(set(orient[e]) == {a, b}, f"orientation of {e} is off its ends")

    # D = D0 + div(phi), with div(phi) = in-flow minus out-flow
    expect = {v: d0.get(v, 0) for v in vertices}
    for e in sub_ends:
        if phi[e] > 0:
            s, t = orient[e]
            expect[t] += phi[e]
            expect[s] -= phi[e]
    require(divisor == expect, "divisor differs from D0 + div(phi)")
    for e in eset:
        require(divisor[f"x:{e}"] == -1, f"inserted vertex on {e} does not carry -1")

    # quasistability: beta over every proper vertex subset
    remaining = [pair for e, pair in ends.items() if e not in eset]
    require(is_connected(base_vertices, remaining), "E disconnects the graph")
    check_quasistable(vertices, sub_ends, v0, mu, divisor)

    require(flow_is_acyclic(vertices, sub_ends, phi, orient), "flow has a directed cycle")

    # a potential f with f(head) - f(tail) = phi(e) * length(e)
    check_potential(vertices, sub_ends, phi, orient, split, v0)


def check_quasistable(vertices, sub_ends, v0, mu, divisor):
    """beta(S) = sum_S (D - mu) + delta_S / 2 is >= 0 on every proper subset
    and > 0 on those containing v0 (mu vanishes on inserted vertices)."""
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    half = math.lcm(*(Fraction(mu.get(v, 0)).denominator for v in vertices))
    scale = 2 * half  # scale * beta is an integer
    weight = [int((divisor[v] - Fraction(mu.get(v, 0))) * scale) for v in vertices]
    edges = [(index[a], index[b]) for a, b in sub_ends.values() if a != b]
    i0 = index[v0]
    for mask in range(1, (1 << n) - 1):
        total = sum(weight[i] for i in range(n) if mask >> i & 1)
        cut = sum(1 for a, b in edges if (mask >> a & 1) != (mask >> b & 1))
        value = total + cut * half
        if mask >> i0 & 1:
            require(value > 0, "not quasistable: beta <= 0 on a set containing v0")
        else:
            require(value >= 0, "not quasistable: beta < 0 on a set")


def check_potential(vertices, sub_ends, phi, orient, split, v0):
    potential = {v0: Fraction(0)}
    adj = {v: [] for v in vertices}
    for e, (a, b) in sub_ends.items():
        if phi[e] > 0:
            s, t = orient[e]
            rise = phi[e] * Fraction(split[e])
        else:
            s, t, rise = a, b, Fraction(0)
        adj[s].append((t, rise))
        adj[t].append((s, -rise))
    todo = [v0]
    while todo:
        v = todo.pop()
        for w, rise in adj[v]:
            if w not in potential:
                potential[w] = potential[v] + rise
                todo.append(w)
    require(len(potential) == len(vertices), "subdivision is not connected")
    for e, (a, b) in sub_ends.items():
        if phi[e] > 0:
            s, t = orient[e]
            require(
                potential[t] - potential[s] == phi[e] * Fraction(split[e]),
                f"no potential fits the flow on {e}",
            )
        else:
            require(potential[a] == potential[b], f"no potential fits the zero edge {e}")


def check_scaled(first, second, factor):
    """The answer at lengths * factor: same pair, splits scaled by factor.
    first, second: (pair key, split mapping)."""
    require(first[0] == second[0], "scaling the lengths changed the located pair")
    require(
        {e: v * factor for e, v in first[1].items()} == dict(second[1]),
        "scaling the lengths did not scale the split",
    )


# ------------------------------------------------------------------- fans


def in_open_cone(cone, point):
    """Relative-interior membership from a cone's JSON rows: equalities
    vanish, inequalities that vanish on every ray vanish, the rest are
    strictly positive."""
    if any(dot(row, point) != 0 for row in cone["equalities"]):
        return False
    for row in cone["inequalities"]:
        value = dot(row, point)
        if all(dot(row, r) == 0 for r in cone["rays"]):
            if value != 0:
                return False
        elif value <= 0:
            return False
    return True


def check_fan(doc, n_edges, points):
    cones = doc["cones"]
    require(len(doc["edge_order"]) == n_edges, "fan has the wrong edge order")
    require([c["id"] for c in cones] == list(range(len(cones))), "cone ids are not 0..n-1")
    maximal = doc["maximal"]
    require(maximal and all(0 <= i < len(cones) for i in maximal), "bad maximal list")
    dims = []
    for c in cones:
        for r in c["rays"]:
            require(all(dot(row, r) == 0 for row in c["equalities"]), "ray off an equality")
            require(all(dot(row, r) >= 0 for row in c["inequalities"]), "ray off an inequality")
        dims.append(rank(c["rays"]) if c["rays"] else 0)

    # seeded positive points each lie in exactly one open maximal cone
    for p in points:
        hits = [i for i in maximal if in_open_cone(cones[i], p)]
        require(len(hits) == 1, f"point {p} lies in {len(hits)} open maximal cones")

    # every listed face is a face of its cone and a cone of the fan
    for c in cones:
        rays = {tuple(r) for r in c["rays"]}
        for f in c["faces"]:
            require(isinstance(f, int) and 0 <= f < len(cones), "face is not in the fan")
            face_rays = {tuple(r) for r in cones[f]["rays"]}
            require(face_rays <= rays, "face has a ray outside its cone")
            tight = [row for row in c["inequalities"] if all(dot(row, r) == 0 for r in face_rays)]
            cut = {r for r in rays if all(dot(row, r) == 0 for row in tight)}
            require(cut == face_rays, "listed face is not cut out by the cone's inequalities")

    # Euler characteristics of the closed orthant and of the open orthant
    require(sum((-1) ** d for d in dims) == 0, "sum of (-1)^dim over all cones is not 0")
    require(
        sum((-1) ** dims[i] for i in maximal) == (-1) ** n_edges,
        "sum of (-1)^dim over uncontracted cones is not (-1)^|E|",
    )


# ----------------------------------------------------------------- ideals


def split_at(ends, eset, phi, orient, lengths):
    """Half-lengths of the subdivided edges at base lengths (zeros allowed),
    solved from the potential equations f(head) - f(tail) = phi * length
    and half(a) + half(b) = length."""
    sub_ends = subdivision_ends(ends, eset)
    vertices = sorted({v for pair in sub_ends.values() for v in pair})
    halves = sorted(e for e in sub_ends if e not in ends)
    col = {v: i for i, v in enumerate(vertices)}
    col.update({h: len(vertices) + i for i, h in enumerate(halves)})
    ncols = len(col)
    rows, rhs = [], []
    for e, (a, b) in sub_ends.items():
        row = [0] * ncols
        if phi[e] > 0:
            s, t = orient[e]
        else:
            s, t = a, b
        row[col[t]] += 1
        row[col[s]] -= 1
        if e in col:
            row[col[e]] -= phi[e]
            rows.append(row)
            rhs.append(0)
        else:
            rows.append(row)
            rhs.append(phi[e] * lengths[e])
    for e in eset:
        row = [0] * ncols
        row[col[f"{e}:a"]] = 1
        row[col[f"{e}:b"]] = 1
        rows.append(row)
        rhs.append(lengths[e])
    row = [0] * ncols
    row[col[vertices[0]]] = 1  # pin one potential
    rows.append(row)
    rhs.append(0)
    values = solve_unique(rows, rhs, [col[h] for h in halves])
    require(values is not None, "no potential exists at a ray of the cone")
    return {h: values[col[h]] for h in halves}


def divides(g, h, rays, k):
    """x^a y^b chi^u divides x^a' y^b' chi^u' in the ring with x y = chi^(e_k)
    over the dual monoid of cone(rays): some integer j >= max(-da, -db)
    leaves du - j e_k nonnegative on every ray.  Monomials are (u, a, b)."""
    du = [x - y for x, y in zip(h[0], g[0])]
    jlo = max(g[1] - h[1], g[2] - h[2])
    jhi = None
    for r in rays:
        value = dot(du, r)
        if r[k] == 0:
            if value < 0:
                return False
        else:
            top = value // r[k]
            jhi = top if jhi is None else min(jhi, top)
    return jhi is None or jlo <= jhi


def check_ideal(ends, eset, phi, orient, e0, edge_order, rays, gens, closed):
    """Check a ray-power intersection at edge e0.

    gens: the intersection's generators and closed: the program's closed
    form, both as (u, a, b) exponent triples; rays: the cone's rays over
    edge_order.
    """
    k = edge_order.index(e0)
    rays = [tuple(r) for r in rays]
    # the exponent each ray imposes on y: on a subdivided edge it is the flow
    # of the half that vanishes on the ray; on a plain edge the edge's flow
    need = []
    if e0 in eset:
        ha, hb = f"{e0}:a", f"{e0}:b"
        up, down = (ha, hb) if phi[hb] == phi[ha] + 1 else (hb, ha)
        require(phi[down] == phi[up] + 1, "half flows do not differ by one")
        upstream_lengths = []
        for r in rays:
            halves = split_at(ends, eset, phi, orient, dict(zip(edge_order, r)))
            require(all(v >= 0 for v in halves.values()), "negative half-length on a ray")
            upstream_lengths.append(halves[up])
            if halves[up] == 0 and halves[down] == 0:
                need.append(None)
            elif halves[down] == 0:
                need.append(phi[down])
            else:
                require(halves[up] == 0, "neither half vanishes on a ray")
                need.append(phi[up])
    else:
        need = [phi[e0]] * len(rays)

    for m in gens:
        for r, n in zip(rays, need):
            if n is not None:
                require(dot(m[0], r) >= (n - m[2]) * r[k], "generator breaks a ray's valuation rule")
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            require(i == j or not divides(g, h, rays, k), "one generator divides another")

    # the closed form (y)^upstream (y, chi^u'') or (y)^phi(e0), with u''
    # measuring the upstream half-length on every ray
    zero = tuple([0] * len(edge_order))
    if e0 in eset:
        n_up = phi[up]
        chi_part = [m for m in closed if m[0] != zero]
        require(len(chi_part) == 1, "closed form lacks its chi generator")
        u2 = chi_part[0][0]
        require(
            all(dot(u2, r) == ell for r, ell in zip(rays, upstream_lengths)),
            "u'' does not measure the upstream half",
        )
        expect = [(zero, 0, n_up + 1), (tuple(u2), 0, n_up)]
    else:
        expect = [(zero, 0, phi[e0])]
    for m in closed:
        require(any(divides(g, m, rays, k) for g in expect), "closed form differs")
    for m in expect:
        require(any(divides(g, m, rays, k) for g in closed), "closed form differs")
    for m in gens:
        require(any(divides(g, m, rays, k) for g in expect), "generator outside the closed form")
    for m in expect:
        require(any(divides(g, m, rays, k) for g in gens), "closed form outside the ideal")
