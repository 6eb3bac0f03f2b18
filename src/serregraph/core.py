"""Multigraphs with an explicit edge involution.

Every directed edge id e has a partner inv(e) with source and target
swapped. A half-loop is an id with inv(e) == e; it contributes 1 to the
degree of its vertex. A full loop is stored as two mutually inverse ids and
contributes 2. Keeping the involution explicit makes loops, covers, and
non-backtracking conditions unambiguous.

A graph keeps src, dst and inv twice: as tuples of Python ints for the
edge-by-edge steps of samplers, DFS and refinement (a tuple index costs a
quarter of an ndarray scalar index), and as read-only int64 arrays for the
vectorized kernels, which _edge_arrays returns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


def _index_table(cols) -> np.ndarray:
    """src, dst and inv as one fresh (3, ne) int64 array. An integer outside
    int64 becomes -1, which every range check rejects; an entry that is not
    an integer raises."""
    try:
        m = np.array(cols)
    except ValueError:  # entries that are sequences themselves
        m = np.empty(0, dtype=object)
    if m.ndim == 2 and (m.dtype.kind in "ib" or not m.size):
        return m.astype(np.int64, copy=False)
    for col, what in zip(cols, ("endpoint", "endpoint", "involution id")):
        e = next((e for e, x in enumerate(col) if not isinstance(x, (int, np.integer))), None)
        if e is not None:
            raise ValueError(f"edge {e} {what} is not an integer")
    return np.array([[x if -2 ** 63 <= x < 2 ** 63 else -1 for x in map(int, c)] for c in cols],
                    np.int64)


class SerreGraph:
    """Immutable multigraph given by parallel edge arrays.

    src[e], dst[e], inv[e] index directed edges 0..ne-1. The constructor
    checks index ranges only; structural coherence of the involution is the
    job of validate(), so that deliberately broken graphs can be built and
    reported on.
    """

    __slots__ = ("nv", "src", "dst", "inv", "name", "_arrays", "_deg", "_out")

    def __init__(self, nv, src, dst, inv, name=None):
        self.nv = int(nv)
        self.name = name
        cols = [c if hasattr(c, "__len__") else list(c) for c in (src, dst, inv)]
        ne = len(cols[0])
        if len(cols[1]) != ne or len(cols[2]) != ne:
            raise ValueError("src, dst, inv must have equal length")
        m = _index_table(cols)
        bad = (m < 0) | (m >= np.array([[self.nv], [self.nv], [ne]]))
        if bad.any():
            e = int(bad.any(axis=0).argmax())
            raise ValueError(f"edge {e} {'endpoint' if bad[:2, e].any() else 'involution id'} out of range")
        m.flags.writeable = False
        self._arrays = tuple(m)
        self.src, self.dst, self.inv = map(tuple, m.tolist())
        self._deg = tuple(np.bincount(m[0], minlength=self.nv).tolist())

    @property
    def ne(self):
        return len(self.src)

    def out_edges(self, v):
        try:
            return self._out[v]
        except AttributeError:  # the out-edge table is built on first use
            out = [[] for _ in range(self.nv)]
            for e, u in enumerate(self.src):
                out[u].append(e)
            self._out = tuple(map(tuple, out))
            return self._out[v]

    def degree(self, v):
        return self._deg[v]

    @property
    def degrees(self):
        return self._deg

    def half_loop_count(self, v):
        return sum(1 for e in self.out_edges(v) if self.inv[e] == e)

    def full_loop_pairs(self, v):
        return sum(1 for e in self.out_edges(v) if self.inv[e] != e and self.dst[e] == v) // 2

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<SerreGraph{tag} nv={self.nv} ne={self.ne}>"


@dataclass(frozen=True)
class RootedGraph:
    graph: SerreGraph
    root: int

    def __post_init__(self):
        if not 0 <= self.root < self.graph.nv:
            raise ValueError("root out of range")


@dataclass(frozen=True)
class Walk:
    """Directed-edge sequence; the vertex sequence is derived on demand."""

    start: int
    edges: tuple[int, ...] = ()

    def __len__(self):
        return len(self.edges)

    def vertices(self, g: SerreGraph) -> list[int]:
        vs = [self.start]
        for e in self.edges:
            if g.src[e] != vs[-1]:
                raise ValueError(f"edge {e} does not continue the walk")
            vs.append(g.dst[e])
        return vs

    def is_closed(self, g: SerreGraph) -> bool:
        vs = self.vertices(g)
        return vs[0] == vs[-1]


@dataclass
class ValidationReport:
    ok: bool
    regular_degree: int | None
    degrees: tuple[int, ...]
    problems: list[str] = field(default_factory=list)


def validate(g: SerreGraph) -> ValidationReport:
    """Check the involution axioms and report the degree structure."""
    src, dst, inv = g._arrays
    bad_inv = inv[inv] != np.arange(g.ne)
    bad_swap = (src[inv] != dst) | (dst[inv] != src)
    problems = []
    for e in np.flatnonzero(bad_inv | bad_swap).tolist():
        if bad_inv[e]:
            problems.append(f"edge {e}: inv(inv) = {g.inv[g.inv[e]]} != {e}")
        if bad_swap[e]:
            problems.append(f"edge {e}: inverse {g.inv[e]} does not swap endpoints")
    degs = g.degrees
    regular = degs[0] if g.nv and all(x == degs[0] for x in degs) else None
    return ValidationReport(ok=not problems, regular_degree=regular,
                            degrees=degs, problems=problems)


def require_regular(g: SerreGraph) -> int:
    rep = validate(g)
    if not rep.ok:
        raise ValueError("invalid graph: " + "; ".join(rep.problems[:3]))
    if rep.regular_degree is None:
        raise ValueError(f"graph is not regular: degrees {set(rep.degrees)}")
    return rep.regular_degree


# -- constructors ----------------------------------------------------------


def from_edges(nv, pairs, half_loops=(), name=None) -> SerreGraph:
    """Build from undirected data.

    pairs: (u, v) tuples; u == v makes a full loop (two inverse ids).
    half_loops: vertices receiving one self-inverse id each (repeats allowed).
    """
    src, dst, inv = [], [], []
    for u, v in pairs:
        e = len(src)
        src += [u, v]
        dst += [v, u]
        inv += [e + 1, e]
    for v in half_loops:
        e = len(src)
        src.append(v)
        dst.append(v)
        inv.append(e)
    return SerreGraph(nv, src, dst, inv, name=name)


def complete_graph(m):
    return from_edges(m, [(i, j) for i in range(m) for j in range(i + 1, m)], name=f"K{m}")


def cycle_graph(m):
    return from_edges(m, [(i, (i + 1) % m) for i in range(m)], name=f"C{m}")


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner, name="Petersen")


def prism(m):
    """Circular ladder C_m x K_2, 3-regular."""
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, m + (i + 1) % m) for i in range(m)]
    edges += [(i, m + i) for i in range(m)]
    return from_edges(2 * m, edges, name=f"prism{m}")


def rose(r):
    """Single vertex with r full loop pairs (2r-regular)."""
    return from_edges(1, [(0, 0)] * r, name=f"rose{r}")


def half_loop_rose(h):
    """Single vertex with h half-loops (h-regular)."""
    return from_edges(1, [], half_loops=[0] * h, name=f"hrose{h}")


def tree_ball(d, r) -> RootedGraph:
    """Radius-r ball of the infinite d-regular tree, rooted at 0."""
    pairs = []
    nv = 1
    frontier = [0]
    for depth in range(r):
        nxt = []
        for v in frontier:
            kids = d if depth == 0 else d - 1
            for _ in range(kids):
                pairs.append((v, nv))
                nxt.append(nv)
                nv += 1
        frontier = nxt
    return RootedGraph(from_edges(nv, pairs, name=f"T{d}ball{r}"), 0)


def triangle_tree_ball(r) -> RootedGraph:
    """Radius-r ball of the 3-regular graph in which every vertex lies on
    exactly one triangle and carries one bridge edge (triangles joined in a
    tree pattern). Interior vertices get both; boundary growth is truncated.
    """
    pairs = []
    nv = 1
    has_triangle = {0: False}
    has_bridge = {0: False}
    depth = {0: 0}
    queue = deque([0])

    def fresh(dep, triangle, bridge):
        nonlocal nv
        w = nv
        nv += 1
        has_triangle[w] = triangle
        has_bridge[w] = bridge
        depth[w] = dep
        queue.append(w)
        return w

    while queue:
        v = queue.popleft()
        if depth[v] >= r:
            continue
        if not has_triangle[v]:
            a = fresh(depth[v] + 1, True, False)
            b = fresh(depth[v] + 1, True, False)
            pairs += [(v, a), (v, b), (a, b)]
            has_triangle[v] = True
        if not has_bridge[v]:
            w = fresh(depth[v] + 1, False, True)
            pairs.append((v, w))
            has_bridge[v] = True
    return RootedGraph(from_edges(nv, pairs, name=f"triangletree{r}"), 0)


def disjoint_union(a: SerreGraph, b: SerreGraph, name=None) -> SerreGraph:
    shift = (a.nv, a.nv, a.ne)
    arrays = (np.concatenate([x, y + k]) for x, y, k in zip(a._arrays, b._arrays, shift))
    return SerreGraph(a.nv + b.nv, *arrays, name=name)


def adjacency(g: SerreGraph) -> np.ndarray:
    """Dense multiplicity matrix; A[u, v] = number of directed edges u -> v.

    A half-loop adds 1 to the diagonal, a full loop pair adds 2. Row sums
    equal degrees.
    """
    A = np.zeros((g.nv, g.nv), dtype=np.int64)
    np.add.at(A, g._arrays[:2], 1)
    return A


# -- traversal helpers -----------------------------------------------------


def distances_from(g: SerreGraph, v: int, cap: int | None = None) -> dict[int, int]:
    dist = {v: 0}
    q = deque([v])
    while q:
        u = q.popleft()
        if cap is not None and dist[u] >= cap:
            continue
        for e in g.out_edges(u):
            w = g.dst[e]
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


# -- exact walk counting ----------------------------------------------------


def _edge_arrays(g: SerreGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """src, dst and inv of g as the read-only int64 arrays the graph keeps."""
    return g._arrays


def _inflow(x: np.ndarray, dst: np.ndarray, nv: int) -> np.ndarray:
    """inflow[v] = sum of the edge-indexed x over the edges into v."""
    out = np.zeros(nv, dtype=x.dtype)
    np.add.at(out, dst, x)
    return out


def _step(x: np.ndarray, inflow: np.ndarray, src: np.ndarray, inv=None, out=(None, None)):
    """x' = inflow[src]; reduced walks (inv given) drop the reversal x[inv].
    out may name two buffers shaped like x to write x' and x[inv] to; mode
    "clip" keeps np.take from buffering them (the indices are checked edges)."""
    nxt = np.take(inflow, src, out=out[0], mode="clip")
    if inv is not None:
        nxt -= np.take(x, inv, out=out[1], mode="clip")
    return nxt


def _walk_inflows(nv: int, edges, o: int, nmax: int, reduced: bool):
    """Exact counts of the walks out of o by edge-indexed propagation.

    Yields inflow_n for n = 0..nmax: inflow_n[v] counts the length-n walks
    from o that end at v, and inflow_0 marks o. x_n[e] counts those whose
    last edge is e, and a step is x_{n+1} = inflow_n[src] for all walks or
    inflow_n[src] - x_n[inv] for reduced (non-backtracking) walks: of the
    walks into src(e), exactly those that arrived by inv(e) would backtrack
    along e.

    Counts run in uint64 while the max-degree cap (D^n for all walks,
    D(D-1)^(n-1) for reduced walks) is below 2^64, and in Python ints
    (object arrays) after that.
    """
    src, dst, inv = edges
    dmax = int(np.bincount(src).max()) if len(src) else 0
    x = np.zeros(len(src), dtype=np.uint64)
    spare = (np.empty_like(x), np.empty_like(x))
    inflow = np.zeros(nv, dtype=np.uint64)
    inflow[o] = 1
    yield inflow
    for n in range(1, nmax + 1):
        cap = dmax * (dmax - 1) ** (n - 1) if reduced else dmax ** n
        if x.dtype != object and cap >= 2 ** 64:
            x, inflow = x.astype(object), inflow.astype(object)
            spare = (np.empty_like(x), np.empty_like(x))
        # the step writes into spare[0] and the old x becomes the next spare,
        # so no edge-sized array is allocated per step
        x, spare = _step(x, inflow, src, inv if reduced else None, spare), (x, spare[1])
        inflow = _inflow(x, dst, nv)
        yield inflow


def is_connected(g: SerreGraph) -> bool:
    return g.nv == 0 or len(distances_from(g, 0)) == g.nv


def connected_components(g: SerreGraph) -> list[list[int]]:
    seen = set()
    comps = []
    for v in range(g.nv):
        if v in seen:
            continue
        comp = sorted(distances_from(g, v))
        seen.update(comp)
        comps.append(comp)
    return comps


def tree_radius(g: SerreGraph, v: int, rmax: int) -> int:
    """t(v): the largest r <= rmax whose ball at v is a tree, -1 if v has a loop.
    A BFS capped at rmax keeps each vertex's edge back to its parent; any other
    edge between reached vertices closes a cycle in the ball of radius max(dist
    of its ends), and t(v) is the least such radius minus 1."""
    if rmax < 0:
        raise ValueError("radius must be >= 0")
    seen = {v: (0, -1)}  # vertex -> (distance, edge back to its parent)
    cut, q = rmax + 1, deque([v])
    while q and seen[q[0]][0] < cut:
        u = q.popleft()
        du, back = seen[u]
        for e in g.out_edges(u):
            w = g.dst[e]
            if w in seen:
                if e != back:
                    cut = min(cut, max(du, seen[w][0]))
            elif du < rmax:
                seen[w] = (du + 1, g.inv[e])
                q.append(w)
    return cut - 1


def is_tree(g: SerreGraph) -> bool:
    """Connected, loop-free (both kinds), and exactly nv-1 undirected edges."""
    return g.nv > 0 and is_connected(g) and tree_radius(g, 0, g.nv) == g.nv


def induced_subgraph(g: SerreGraph, vertices) -> tuple[SerreGraph, list[int]]:
    """Subgraph on the given vertices with all edges between them.

    Returns (subgraph, new_to_old). Edge involution is preserved because an
    edge and its inverse have the same endpoint set.
    """
    new_to_old = list(vertices)
    old_to_new = {v: i for i, v in enumerate(new_to_old)}
    # out-edges of the kept vertices only, so a ball costs its own size;
    # sorting keeps g's edge-id order
    keep = sorted(e for v in old_to_new for e in g.out_edges(v) if g.dst[e] in old_to_new)
    eid = {e: i for i, e in enumerate(keep)}
    src = [old_to_new[g.src[e]] for e in keep]
    dst = [old_to_new[g.dst[e]] for e in keep]
    inv = [eid[g.inv[e]] for e in keep]
    return SerreGraph(len(new_to_old), src, dst, inv, name=g.name), new_to_old


@dataclass
class Ball:
    """Induced radius-r neighborhood, relabeled so the root is vertex 0."""

    graph: SerreGraph
    root: int
    radius: int
    new_to_old: list[int]
    dist: tuple[int, ...]  # distance from root per new vertex id

    @property
    def is_tree(self):
        return is_tree(self.graph)

    def pattern(self):
        from .patterns import pattern_of_ball

        return pattern_of_ball(self)


def ball(g: SerreGraph, root: int, r: int) -> Ball:
    if r < 0:
        raise ValueError("radius must be >= 0")
    dist = distances_from(g, root, cap=r)
    order = sorted(dist, key=lambda v: (dist[v], v))
    sub, new_to_old = induced_subgraph(g, order)
    return Ball(graph=sub, root=0, radius=r, new_to_old=new_to_old,
                dist=tuple(dist[v] for v in new_to_old))


# -- regularization and tree completion ------------------------------------


def add_half_loops_to_regularize(g: SerreGraph, d: int) -> SerreGraph:
    degs = g.degrees
    if degs and max(degs) > d:
        raise ValueError(f"max degree {max(degs)} exceeds target {d}")
    # the added half-loops take ids ne, ne+1, ... in vertex order
    loops = np.repeat(np.arange(g.nv), d - np.array(degs, dtype=np.int64))
    src, dst, inv = (np.concatenate([a, b]) for a, b in
                     zip(g._arrays, (loops, loops, np.arange(g.ne, g.ne + loops.size))))
    return SerreGraph(g.nv, src, dst, inv, name=g.name)


def split_full_loops(g: SerreGraph) -> SerreGraph:
    """Replace every full loop pair by two half-loops.

    This is the normalization that leaves the random walk unchanged; it is
    never applied implicitly because cycle classification distinguishes the
    two loop kinds.
    """
    src, dst, inv = g._arrays
    return SerreGraph(g.nv, src, dst, np.where(src == dst, np.arange(g.ne), inv), name=g.name)


def tree_m_ball(g: SerreGraph, m: int, root: int, r: int) -> Ball:
    """Radius-r ball of the graph completed to degree m with glued trees.

    Original vertices keep their induced edges; every vertex of degree k < m
    grows m-k fresh branches whose interior vertices have degree m. Added
    vertices form a forest hanging off the original graph.
    """
    degs = g.degrees
    if degs and max(degs) > m:
        raise ValueError(f"max degree {max(degs)} exceeds m={m}")
    base = ball(g, root, r)
    src = list(base.graph.src)
    dst = list(base.graph.dst)
    inv = list(base.graph.inv)
    nv = base.graph.nv
    dist = list(base.dist)

    def add_edge(u, v):
        e = len(src)
        src.extend((u, v))
        dst.extend((v, u))
        inv.extend((e + 1, e))

    frontier = []  # (vertex, missing-children count)
    for v in range(base.graph.nv):
        old = base.new_to_old[v]
        if dist[v] < r:
            deficit = m - g.degree(old)
            if deficit > 0:
                frontier.append((v, deficit, dist[v]))
    while frontier:
        v, kids, dv = frontier.pop()
        if dv >= r:
            continue
        for _ in range(kids):
            w = nv
            nv += 1
            dist.append(dv + 1)
            add_edge(v, w)
            if dv + 1 < r:
                frontier.append((w, m - 1, dv + 1))
    graph = SerreGraph(nv, src, dst, inv, name=f"tree{m}({g.name or 'G'})")
    new_to_old = base.new_to_old + [-1] * (nv - base.graph.nv)
    return Ball(graph=graph, root=0, radius=r, new_to_old=new_to_old, dist=tuple(dist))


# -- permutation groups: Cayley graphs and Schreier quotients ---------------


def _perm_inverse(p):
    q = [0] * len(p)
    for i, x in enumerate(p):
        q[x] = i
    return tuple(q)


def _involution_pairing(gens):
    """Pair generator indices so paired permutations are mutual inverses.

    Self-paired indices must be involutions. Raises if the multiset of
    generators is not closed under inversion.
    """
    gens = [tuple(p) for p in gens]
    pair = [None] * len(gens)
    for i, p in enumerate(gens):
        if pair[i] is not None:
            continue
        pinv = _perm_inverse(p)
        if pinv == p:
            pair[i] = i
            continue
        for j in range(i + 1, len(gens)):
            if pair[j] is None and gens[j] == pinv:
                pair[i], pair[j] = j, i
                break
        else:
            raise ValueError(f"generator {i} has no inverse in the set")
    return pair


def cayley_graph(gens, name=None) -> SerreGraph:
    """Cayley graph on 0..N-1 from right-multiplication permutations.

    Each generator index contributes one out-edge per vertex; the edge for
    index i at x ends at gens[i][x] and its inverse carries the paired index.
    """
    gens = [tuple(p) for p in gens]
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(n)):
            raise ValueError("generators must be permutations of range(N)")
        if p == tuple(range(n)):
            raise ValueError("identity is not allowed as a generator")
    pair = _involution_pairing(gens)
    k = len(gens)
    to = np.array(gens, dtype=np.int64).T  # edge x*k + i runs from x to gens[i][x]
    return SerreGraph(n, np.repeat(np.arange(n), k), to.ravel(), (to * k + pair).ravel(),
                      name=name or "Cayley")


@dataclass
class SchreierResult:
    graph: SerreGraph
    cayley: SerreGraph
    coset_of: tuple[int, ...]       # element -> quotient vertex
    subgroup_order: int
    cover_verified: bool
    trivial_coset_loops: int        # loop edge ids at the image of identity


def schreier_quotient(gens, s_index: int) -> SchreierResult:
    """Quotient of the Cayley graph by the left action of the cyclic group
    generated by one chosen generator.

    Vertices are right cosets <s>g; each generator index induces one edge per
    coset, with multiplicities kept, so the Cayley graph covers the quotient
    |<s>|-to-1. The identity coset always carries a loop labeled by s.
    """
    gens = [tuple(p) for p in gens]
    n = len(gens[0])
    if not 0 <= s_index < len(gens):
        raise ValueError("s_index out of range")
    pair = _involution_pairing(gens)
    # right-multiplication table R[x] for every element x, by BFS from id=0
    R = {0: tuple(range(n))}
    q = deque([0])
    while q:
        x = q.popleft()
        for g in gens:
            y = g[x]
            if y not in R:
                R[y] = tuple(g[z] for z in R[x])
                q.append(y)
    if len(R) != n:
        raise ValueError("generators do not generate the group")
    s = gens[s_index]
    # <s> as an element set: orbit of the identity under right mult by s
    H = [0]
    cur = s[0]
    while cur != 0:
        H.append(cur)
        cur = s[cur]
    coset_of = [None] * n
    reps = []
    for x in range(n):
        if coset_of[x] is None:
            cid = len(reps)
            reps.append(x)
            Rx = R[x]
            for h in H:
                coset_of[Rx[h]] = cid
    nq = len(reps)
    k = len(gens)
    # edge c*k + i runs from coset c to the coset of gens[i][reps[c]]
    to = np.array(coset_of)[np.array(gens, dtype=np.int64).T[reps]]
    quotient = SerreGraph(nq, np.repeat(np.arange(nq), k), to.ravel(), (to * k + pair).ravel(),
                          name="Schreier")
    cay = cayley_graph(gens, name="Cayley")

    # covering verification: the edge map (x, i) -> (coset(x), i) must
    # preserve endpoints and involution, and be a bijection on out-edges at
    # every vertex
    ok = True
    for x in range(n):
        imgs = set()
        for i in range(k):
            e_cov = x * k + i
            e_q = coset_of[x] * k + i
            if coset_of[cay.dst[e_cov]] != quotient.dst[e_q]:
                ok = False
            ic = cay.inv[e_cov]
            if coset_of[cay.src[ic]] * k + ic % k != quotient.inv[e_q]:
                ok = False
            imgs.add(e_q)
        if len(imgs) != quotient.degree(coset_of[x]):
            ok = False
    loops0 = sum(1 for e in quotient.out_edges(0) if quotient.dst[e] == 0)
    return SchreierResult(graph=quotient, cayley=cay, coset_of=tuple(coset_of),
                          subgroup_order=len(H), cover_verified=ok,
                          trivial_coset_loops=loops0)
