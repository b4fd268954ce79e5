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
from .linalg import rank

SOFT_EDGE_CAP = 16


@dataclass(frozen=True)
class Graph:
    """A connected multigraph with vertex weights and legs.

    vertices: tuple of (id, weight); edges: tuple of (id, (end, end)) with the
    endpoint pair sorted; legs: tuple of (index, vertex id).  Use build_graph
    (or Graph.from_json) for validated construction; `connected=False` is only
    for internal subgraph manipulation.
    """

    vertices: tuple
    edges: tuple
    legs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted((str(v), int(w)) for v, w in self.vertices)))
        object.__setattr__(
            self,
            "edges",
            tuple(sorted((str(e), tuple(sorted((str(a), str(b))))) for e, (a, b) in self.edges)),
        )
        object.__setattr__(self, "legs", tuple(sorted((int(i), str(v)) for i, v in self.legs)))

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

    def validate(self, connected=True):
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
        if connected and self.b0() != 1:
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

    def valence(self, v, edge_set=None):
        """Number of edge ends at v, loops counting twice."""
        n = 0
        for e, (a, b) in self.edges:
            if edge_set is not None and e not in edge_set:
                continue
            n += (a == v) + (b == v)
        return n

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

    def remove_edges(self, edge_set):
        """The (possibly disconnected) subgraph on all vertices minus edge_set."""
        edge_set = set(edge_set)
        return Graph(
            self.vertices,
            tuple((e, pair) for e, pair in self.edges if e not in edge_set),
            self.legs,
        )

    def relabel(self, vmap=None, emap=None):
        vmap = vmap or {}
        emap = emap or {}
        return Graph(
            tuple((vmap.get(v, v), w) for v, w in self.vertices),
            tuple((emap.get(e, e), (vmap.get(a, a), vmap.get(b, b))) for e, (a, b) in self.edges),
            tuple((i, vmap.get(v, v)) for i, v in self.legs),
        )

    def to_json(self):
        return {
            "vertices": [{"id": v, "weight": w} for v, w in self.vertices],
            "edges": [{"id": e, "ends": list(pair)} for e, pair in self.edges],
            "legs": {str(i): v for i, v in self.legs},
        }

    @staticmethod
    def from_json(data):
        return build_graph(data)


def build_graph(spec):
    """Validated Graph from its JSON description (see Graph JSON format)."""
    try:
        vertices = tuple((d["id"], d.get("weight", 0)) for d in spec["vertices"])
        edges = tuple((d["id"], tuple(d["ends"])) for d in spec["edges"])
        legs = tuple((int(i), v) for i, v in spec.get("legs", {}).items())
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed graph description: {exc}") from exc
    for e, ends in edges:
        if len(ends) != 2:
            raise ValidationError(f"edge {e} must have exactly two endpoints")
    seen_ids = [e for e, _ in edges]
    if len(set(seen_ids)) != len(seen_ids):
        raise ValidationError("duplicate edge id")
    g = Graph(vertices, edges, legs)
    g.validate(connected=True)
    return g


@dataclass(frozen=True)
class Specialization:
    """Edge contraction data: source -> target = source/contracted.

    vertex_map is constant exactly on the connected components of the
    contracted subgraph.  contract keeps the ids of the edges it does not
    contract; along a pseudo-divisor's subdivision (contract_pushforward) a
    half whose partner is contracted becomes its base edge.
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


def contract(g, edge_set):
    """Contract the given edges, with genus-preserving weight bookkeeping.

    The weight of a new vertex is the genus of its preimage (weight sum plus
    first Betti number); a contracted loop just adds 1.  Remaining edge ids
    are preserved; the new vertex takes the least id of its component.
    """
    edge_set = frozenset(edge_set)
    for e in edge_set:
        if e not in g.ends:
            raise ValidationError(f"unknown edge id {e}")
    # components of the contracted subgraph (all vertices, edge_set edges)
    parent = {v: v for v in g.vertex_ids}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in sorted(edge_set):
        a, b = g.ends[e]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = {}
    for v in g.vertex_ids:
        comp.setdefault(find(v), []).append(v)
    rep = {}
    for root, members in comp.items():
        name = min(members)
        for v in members:
            rep[v] = name
    new_vertices = []
    for root, members in sorted(comp.items(), key=lambda kv: min(kv[1])):
        mset = set(members)
        n_edges = sum(1 for e in edge_set if g.ends[e][0] in mset)
        b1 = n_edges - len(members) + 1
        new_vertices.append((min(members), sum(g.weight[v] for v in members) + b1))
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
class GraphStats:
    """Per-query invariants for a (vertex set, edge set) pair."""

    b0_removed: int
    b1_contracted: int
    delta_v: int
    val_e: tuple  # sorted (vertex, valence in E)
    nondisconnecting: bool


def graph_stats(g, vset, eset):
    """delta, valences, Betti data for V and E, with the partition identity
    b1(g/E) = |F| - b0(g_F) + 1 asserted for both orientations of the split."""
    vset = set(vset)
    eset = set(eset)
    for v in vset:
        if v not in g.weight:
            raise ValidationError(f"unknown vertex id {v}")
    for e in eset:
        if e not in g.ends:
            raise ValidationError(f"unknown edge id {e}")
    fset = set(g.edge_ids) - eset
    b1_contract_e = contract(g, eset).target.b1()
    b1_contract_f = contract(g, fset).target.b1()
    if (
        b1_contract_e != len(fset) - g.b0(fset) + 1
        or b1_contract_f != len(eset) - g.b0(eset) + 1
    ):
        raise AssertionError("contraction Betti numbers break the partition identity")
    return GraphStats(
        b0_removed=g.b0(eset),
        b1_contracted=b1_contract_e,
        delta_v=g.delta(vset),
        val_e=tuple((v, g.valence(v, eset)) for v in sorted(vset)),
        nondisconnecting=g.b0(eset) == 1,
    )


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

    def as_rows(self, edge_order=None):
        order = tuple(edge_order) if edge_order is not None else self.graph.edge_ids
        return [
            tuple(self.cycle_map[e].get(f, 0) for f in order)
            for e, _ in self.cycles
        ]


def reference_direction(g, e):
    """(tail, head) of e read from the smaller endpoint."""
    a, b = g.ends[e]
    return (a, b)


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
    if len(basis.cycles) != g.b1():
        raise AssertionError("cycle basis size differs from b1")
    rows = basis.as_rows()
    if rows and rank(rows) != g.b1():
        raise AssertionError("fundamental cycles are linearly dependent")
    return basis


def incidence_rows(g, edge_order=None):
    """Signed incidence vectors d*(e) = head - tail per reference direction."""
    order = tuple(edge_order) if edge_order is not None else g.edge_ids
    vs = g.vertex_ids
    vidx = {v: i for i, v in enumerate(vs)}
    rows = []
    for e in order:
        a, b = reference_direction(g, e)
        row = [0] * len(vs)
        if a != b:
            row[vidx[b]] += 1
            row[vidx[a]] -= 1
        rows.append(tuple(row))
    return rows
