"""Labeled multigraphs with weights and legs: contractions, subdivisions,
stable reduction, and cycle-space utilities.

All objects are immutable and canonically ordered (lexicographic by id), so
every enumeration downstream is deterministic.  Ids are strings; loops and
parallel edges are allowed.  Operations past 16 edges emit a warning because
everything built on top of this module enumerates exponentially.
"""

from dataclasses import dataclass
from functools import cached_property
import warnings

from .errors import ValidationError
from .linalg import exact_value

SOFT_EDGE_CAP = 16


@dataclass(frozen=True)
class Graph:
    """A connected multigraph with vertex weights and legs.

    vertices: tuple of (id, weight); edges: tuple of (id, (end, end)) with the
    endpoint pair sorted; legs: tuple of (index, vertex id).  Use build_graph
    for validated construction, which also rejects a disconnected graph.
    """

    vertices: tuple
    edges: tuple
    legs: tuple = ()

    def __post_init__(self):
        # weights and leg indices pass the integer gate: no float, bool or string
        vertices = ((str(v), exact_value(w, integral=True)) for v, w in self.vertices)
        legs = ((exact_value(i, integral=True), str(v)) for i, v in self.legs)
        object.__setattr__(self, "vertices", tuple(sorted(vertices)))
        object.__setattr__(
            self,
            "edges",
            tuple(sorted((str(e), tuple(sorted((str(a), str(b))))) for e, (a, b) in self.edges)),
        )
        object.__setattr__(self, "legs", tuple(sorted(legs)))

    @cached_property
    def weight(self):
        w = dict(self.vertices)
        if len(w) != len(self.vertices):
            raise ValidationError("duplicate vertex id")
        return w

    @cached_property
    def ends(self):
        d = {e: pair for e, pair in self.edges}
        if len(d) != len(self.edges):
            raise ValidationError("duplicate edge id")
        return d

    @cached_property
    def leg_map(self):
        d = dict(self.legs)
        if len(d) != len(self.legs):
            raise ValidationError("duplicate leg index")
        return d

    @cached_property
    def vertex_ids(self):
        return tuple(v for v, _ in self.vertices)

    @cached_property
    def edge_ids(self):
        return tuple(e for e, _ in self.edges)

    def validate(self):
        self.weight, self.ends, self.leg_map  # force duplicate-id checks
        for e, (a, b) in self.edges:
            for v in (a, b):
                if v not in self.weight:
                    raise ValidationError(f"edge {e} references undeclared vertex {v}")
        for i, v in self.legs:
            if v not in self.weight:
                raise ValidationError(f"leg {i} references undeclared vertex {v}")
        for v, w in self.vertices:
            if w < 0:
                raise ValidationError(f"vertex {v} has negative weight")
        if self.b0() != 1:
            raise ValidationError("graph is disconnected")
        if len(self.edges) > SOFT_EDGE_CAP:
            warnings.warn(
                f"{len(self.edges)} edges exceeds the desk-scale soft cap of {SOFT_EDGE_CAP}; "
                "downstream enumerations are exponential",
                stacklevel=2,
            )
        return self

    @cached_property
    def adjacency(self):
        adj = {v: [] for v in self.vertex_ids}
        for e, (a, b) in self.edges:
            adj[a].append((e, b))
            if a != b:
                adj[b].append((e, a))
        return {v: tuple(sorted(nb)) for v, nb in adj.items()}

    def is_loop(self, e):
        a, b = self.ends[e]
        return a == b

    def valence(self, v):
        """Number of edge ends at v, loops counting twice."""
        return sum((a == v) + (b == v) for _, (a, b) in self.edges)

    def delta(self, vset):
        """Number of edges joining vset to its complement (loops excluded)."""
        vset = set(vset)
        return sum(1 for _, (a, b) in self.edges if (a in vset) != (b in vset))

    def b0(self, removed_edges=()):
        removed = set(removed_edges)
        seen = set()
        comps = 0
        for start in self.vertex_ids:
            if start in seen:
                continue
            comps += 1
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                for e, u in self.adjacency[v]:
                    if e not in removed and u not in seen:
                        seen.add(u)
                        stack.append(u)
        return comps

    def b1(self):
        return len(self.edges) - len(self.vertices) + self.b0()

    def genus(self):
        return sum(w for _, w in self.vertices) + self.b1()

    def is_nondisconnecting(self, edge_set):
        return self.b0(edge_set) == 1


def build_graph(spec):
    """Validated Graph from its JSON description (see Graph JSON format)."""
    try:
        vertices = tuple((d["id"], d.get("weight", 0)) for d in spec["vertices"])
        edges = tuple((d["id"], tuple(d["ends"])) for d in spec["edges"])
        legs = spec.get("legs", {})
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed graph description: {exc}") from exc
    if not isinstance(legs, dict):
        raise ValidationError("legs must be an object from leg index to vertex id")
    try:
        legs = tuple((int(i), v) for i, v in legs.items())
    except ValueError as exc:
        raise ValidationError(f"leg indices must be integers: {exc}") from exc
    for e, ends in edges:
        if len(ends) != 2:
            raise ValidationError(f"edge {e} must have exactly two endpoints")
    seen_ids = [e for e, _ in edges]
    if len(set(seen_ids)) != len(seen_ids):
        raise ValidationError("duplicate edge id")
    g = Graph(vertices, edges, legs)
    g.validate()
    return g


@dataclass(frozen=True)
class Specialization:
    """Edge contraction data: source -> target = source/contracted.

    vertex_map is constant exactly on the connected components of the
    contracted subgraph.  contract keeps the ids of the edges it does not
    contract.
    """

    source: Graph
    target: Graph
    contracted: frozenset
    vertex_map: tuple  # sorted (source vertex, target vertex) pairs

    @cached_property
    def vmap(self):
        return dict(self.vertex_map)

    def __call__(self, v):
        return self.vmap[v]


def contraction_names(g, edge_set):
    """The vertex map of contracting the given edges: each vertex goes to
    the least vertex of its component in the contracted subgraph."""
    edge_set = frozenset(edge_set)
    for e in edge_set:
        if e not in g.ends:
            raise ValidationError(f"unknown edge id {e}")
    parent = {v: v for v in g.vertex_ids}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # each root stays the least member of its component
    for e in edge_set:
        a, b = g.ends[e]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {v: find(v) for v in g.vertex_ids}


def contract(g, edge_set):
    """Contract the given edges, with genus-preserving weight bookkeeping.

    The weight of a new vertex is the genus of its preimage (weight sum plus
    first Betti number); a contracted loop just adds 1.  Remaining edge ids
    are preserved; the new vertex takes the least id of its component
    (contraction_names).
    """
    edge_set = frozenset(edge_set)
    rep = contraction_names(g, edge_set)
    comp = {}
    for v in g.vertex_ids:
        comp.setdefault(rep[v], []).append(v)
    new_vertices = []
    for name, members in sorted(comp.items()):
        n_edges = sum(1 for e in edge_set if rep[g.ends[e][0]] == name)
        b1 = n_edges - len(members) + 1
        new_vertices.append((name, sum(g.weight[v] for v in members) + b1))
    new_edges = tuple(
        (e, (rep[a], rep[b])) for e, (a, b) in g.edges if e not in edge_set
    )
    new_legs = tuple((i, rep[v]) for i, v in g.legs)
    target = Graph(tuple(new_vertices), new_edges, new_legs)
    return Specialization(g, target, edge_set, tuple(sorted(rep.items())))


def compose(s1, s2):
    """The specialization g -> g'' composing s1: g -> g' and s2: g' -> g''."""
    if s1.target is not s2.source and s1.target != s2.source:
        raise ValidationError("specializations do not compose")
    vmap = tuple(sorted((v, s2.vmap[s1.vmap[v]]) for v in s1.source.vertex_ids))
    return Specialization(s1.source, s2.target, s1.contracted | s2.contracted, vmap)


def identity_specialization(g):
    return Specialization(g, g, frozenset(), tuple((v, v) for v in g.vertex_ids))


def exceptional_id(e):
    """Canonical id of the vertex inserted inside edge e."""
    return f"x:{e}"


@dataclass(frozen=True)
class Subdivision:
    """One exceptional vertex inside each edge of `subdivided_set`.

    halves maps each subdivided edge e to its two result edges (e:a, e:b);
    e:a is attached to the lexicographically smaller endpoint of e.  Every
    result edge carries a reference direction aligned with its parent
    (stored in half_dir), which is what cycle lifting relies on.
    """

    base: Graph
    subdivided_set: frozenset
    result: Graph
    over: tuple  # sorted (result edge, base edge)
    exceptional: frozenset
    half_dir: tuple  # sorted (result edge, (tail, head)) in parent-forward sense

    @cached_property
    def over_map(self):
        return dict(self.over)

    @cached_property
    def halves(self):
        d = {}
        for r, b in self.over:
            if r != b:
                d.setdefault(b, []).append(r)
        return {b: tuple(sorted(rs)) for b, rs in d.items()}

    @cached_property
    def dir_map(self):
        return dict(self.half_dir)


def subdivide(g, edge_set):
    """The subdivision of g at the given edges."""
    edge_set = frozenset(edge_set)
    for e in edge_set:
        if e not in g.ends:
            raise ValidationError(f"unknown edge id {e}")
    vertices = list(g.vertices)
    edges = []
    over = []
    half_dir = []
    for e, (a, b) in g.edges:
        if e not in edge_set:
            edges.append((e, (a, b)))
            over.append((e, e))
            half_dir.append((e, (a, b)))
            continue
        x = exceptional_id(e)
        vertices.append((x, 0))
        ea, eb = f"{e}:a", f"{e}:b"
        edges.append((ea, (a, x)))
        edges.append((eb, (x, b)))
        over.extend([(ea, e), (eb, e)])
        half_dir.extend([(ea, (a, x)), (eb, (x, b))])
    result = Graph(tuple(vertices), tuple(edges), g.legs)
    return Subdivision(
        g,
        edge_set,
        result,
        tuple(sorted(over)),
        frozenset(exceptional_id(e) for e in edge_set),
        tuple(sorted(half_dir)),
    )


@dataclass(frozen=True)
class Refinement:
    """A graph obtained from `base` by chains of subdivisions.

    chains maps each base edge to the ordered list of (result edge, forward)
    pairs walking from the smaller base endpoint to the larger one; interior
    chain vertices are the exceptional vertices of the refinement.
    """

    base: Graph
    result: Graph
    chains: tuple  # sorted (base edge, ((result edge, forward bool), ...))
    exceptional: frozenset

    @cached_property
    def chain_map(self):
        return dict(self.chains)


def stable_reduction(g):
    """Stable model of a weighted graph with legs.

    Returns (st, red, witness): `red` is the specialization of g obtained by
    repeatedly contracting an edge at a valence-1, weight-0 vertex carrying at
    most one leg; `st` then suppresses every valence-2, weight-0, leg-free
    vertex of red.target, and `witness` exhibits red.target as a refinement
    of st.  Idempotent: stable_reduction(st) is the identity.
    """
    red = identity_specialization(g)
    cur = g
    while True:
        victim = None
        for v in cur.vertex_ids:
            legs_at = sum(1 for _, u in cur.legs if u == v)
            if cur.valence(v) == 1 and cur.weight[v] == 0 and legs_at <= 1:
                victim = v
                break
        if victim is None:
            break
        e = next(e for e, (a, b) in cur.edges if victim in (a, b))
        step = contract(cur, {e})
        red = compose(red, step)
        cur = step.target
    hat = cur  # the intermediate model: no unstable valence-1 vertices left
    # suppress valence-2, weight-0, leg-free vertices (never loop vertices:
    # with a leg present a loop vertex has valence >= 2 only via the loop and
    # then carries the whole graph)
    suppress = set()
    for v in hat.vertex_ids:
        legs_at = sum(1 for _, u in hat.legs if u == v)
        incident = [e for e, (a, b) in hat.edges if v in (a, b)]
        if hat.valence(v) == 2 and hat.weight[v] == 0 and legs_at == 0 and len(incident) == 2:
            suppress.add(v)
    # walk maximal chains through suppressed vertices
    chain_edges = {}
    used = set()
    new_edges = []
    for e, (a, b) in hat.edges:
        if e in used:
            continue
        if a not in suppress and b not in suppress:
            used.add(e)
            new_edges.append((e, (a, b)))
            chain_edges[e] = ((e, True),)
            continue
        # grow the chain in both directions from this edge
        chain = [(e, (a, b))]
        used.add(e)
        while chain[0][1][0] in suppress:
            v = chain[0][1][0]
            nxt = next(ee for ee, (x, y) in hat.edges if ee not in used and v in (x, y))
            x, y = hat.ends[nxt]
            used.add(nxt)
            chain.insert(0, (nxt, (x if y == v else y, v)))
        while chain[-1][1][1] in suppress:
            v = chain[-1][1][1]
            nxt = next(ee for ee, (x, y) in hat.edges if ee not in used and v in (x, y))
            x, y = hat.ends[nxt]
            used.add(nxt)
            chain.append((nxt, (v, x if y == v else y)))
        endpoints = (chain[0][1][0], chain[-1][1][1])
        new_id = min(ee for ee, _ in chain)
        lo, hi = min(endpoints), max(endpoints)
        walk_from_lo = endpoints[0] == lo if endpoints[0] != endpoints[1] else True
        ordered = chain if walk_from_lo else [(ee, (y, x)) for ee, (x, y) in reversed(chain)]
        new_edges.append((new_id, (lo, hi)))
        # per chain edge: True when walked from its smaller endpoint
        chain_edges[new_id] = tuple(
            (ee, xy[0] == min(hat.ends[ee]) if hat.ends[ee][0] != hat.ends[ee][1] else True)
            for ee, xy in ordered
        )
    st = Graph(
        tuple((v, w) for v, w in hat.vertices if v not in suppress),
        tuple(new_edges),
        hat.legs,
    )
    witness = Refinement(
        st,
        hat,
        tuple(sorted(chain_edges.items())),
        frozenset(suppress),
    )
    return st, red, witness


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a spanning tree, as signed edge vectors.

    Each non-tree edge e gets the cycle through the tree with gamma(e) = +1;
    signs are read against the reference direction of each edge (from the
    smaller endpoint to the larger one).
    """

    graph: Graph
    spanning_tree: frozenset
    cycles: tuple  # sorted (edge, ((edge, sign), ...))

    @cached_property
    def cycle_map(self):
        return {e: dict(vec) for e, vec in self.cycles}


def cycle_basis(g, avoid=()):
    """Deterministic fundamental-cycle basis; the tree avoids `avoid`.

    BFS from the lowest vertex id with edges scanned in canonical order.
    Loops never enter the tree.  Raises if `avoid` disconnects g.
    """
    avoid = set(avoid)
    if not g.is_nondisconnecting(avoid):
        raise ValidationError("avoid-set disconnects the graph")
    root = g.vertex_ids[0]
    parent_edge = {root: None}
    tree = set()
    queue = [root]
    while queue:
        v = queue.pop(0)
        for e, u in g.adjacency[v]:
            if e in avoid or g.is_loop(e) or u in parent_edge:
                continue
            parent_edge[u] = (e, v)
            tree.add(e)
            queue.append(u)
    if len(parent_edge) != len(g.vertex_ids):
        raise ValidationError("graph is disconnected")

    def tree_path(u, v):
        """Edge walk u -> v inside the tree, as (edge, from, to) steps."""
        path_u = []
        x = u
        while parent_edge[x] is not None:
            e, p = parent_edge[x]
            path_u.append((x, e, p))
            x = p
        path_v = []
        x = v
        while parent_edge[x] is not None:
            e, p = parent_edge[x]
            path_v.append((x, e, p))
            x = p
        # drop the common climb above the meeting point
        while path_u and path_v and path_u[-1][1] == path_v[-1][1]:
            path_u.pop()
            path_v.pop()
        steps = [(e, x, p) for x, e, p in path_u]  # walk x -> p
        steps += [(e, p, x) for x, e, p in reversed(path_v)]  # walk p -> x
        return steps

    cycles = []
    for e in g.edge_ids:
        if e in tree:
            continue
        a, b = g.ends[e]
        vec = {e: 1}
        if a != b:
            # traverse e along its reference direction a -> b, close via tree
            for f, x, y in tree_path(b, a):
                ta, tb = g.ends[f]
                vec[f] = vec.get(f, 0) + (1 if (x, y) == (ta, tb) else -1)
            vec = {f: s for f, s in vec.items() if s != 0}
        cycles.append((e, tuple(sorted(vec.items()))))
    basis = CycleBasis(g, frozenset(tree), tuple(sorted(cycles)))
    _check_cycles(basis)
    return basis


def _check_cycles(basis):
    """Certificate of a cycle basis: each cycle is +1 on its own non-tree
    edge and 0 on every other one (an identity block, so the cycles are
    independent), and its boundary vanishes at every vertex (so each is a
    cycle).  With one cycle per non-tree edge, b1 of them, they are then a
    basis of the cycle space.  Explicit raises, so python -O keeps it."""
    g = basis.graph
    off_tree = [e for e in g.edge_ids if e not in basis.spanning_tree]
    if len(off_tree) != g.b1() or sorted(e for e, _ in basis.cycles) != sorted(off_tree):
        raise AssertionError("the cycles are not one per non-tree edge")
    for e, vec in basis.cycles:
        signs = dict(vec)
        if any(signs.get(f, 0) != (f == e) for f in off_tree):
            raise AssertionError("a fundamental cycle leaves the identity block")
        boundary = dict.fromkeys(g.vertex_ids, 0)
        for f, s in vec:
            tail, head = g.ends[f]
            boundary[tail] -= s
            boundary[head] += s
        if any(boundary.values()):
            raise AssertionError("a fundamental cycle has a nonzero boundary")
