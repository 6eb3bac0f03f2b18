"""Canonical forms for rooted neighborhoods.

A Pattern is hashable and equal exactly when the rooted balls are isomorphic
as multigraphs with involution (loop kinds and edge multiplicities count).
Trees get a linear-time recursive form. Every other ball is labelled
canonically by individualization-refinement with automorphism pruning
(McKay & Piperno, "Practical graph isomorphism, II", 2014):

- A coloring is a list of ranks, so its cells come in a canonical order.
  The seed colors are (distance, degree, half-loops, full-loop pairs); the
  root is the only vertex at distance 0 and stays in cell 0.
- Refinement recolors each vertex by (color, sorted neighbour colors) until
  the number of cells stops growing. It is equivariant and keeps the order.
- The search takes the first non-singleton cell, and for each vertex in it
  splits that vertex ahead of the rest of the cell and refines again. A
  discrete coloring is a leaf; its certificate lists, per position, the
  loop counts and the (position, multiplicity) pairs of the neighbours. The
  key is the minimum certificate.
- Two leaves with equal certificates give an automorphism. Only the first
  and the best leaf are kept to compare against. A child in the same orbit
  as an explored sibling, under the automorphisms found so far that fix
  the path to it, is skipped; when a new automorphism makes the current
  child of an ancestor redundant, the search returns to that ancestor.

The search counts its nodes against SEARCH_BUDGET and raises ValueError
over budget instead of stalling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Ball, SerreGraph, ball, tree_ball

# maximum individualization-refinement search nodes per ball
SEARCH_BUDGET = 10 ** 4


@dataclass(frozen=True)
class Pattern:
    radius: int
    nv: int
    ne: int
    is_tree: bool
    key: tuple


def _rank(vals):
    idx = {c: i for i, c in enumerate(sorted(set(vals)))}
    return [idx[c] for c in vals]


def _refine(colors, nbr):
    """Refine a rank coloring until the number of cells stops growing."""
    cells = max(colors) + 1
    while True:
        new = _rank([(c, tuple(sorted([colors[w] for w in ws]))) for c, ws in zip(colors, nbr)])
        grown = max(new) + 1
        if grown == cells:
            return colors
        colors, cells = new, grown


def _individualize(colors, v):
    """Split v ahead of the rest of its cell."""
    c = colors[v]
    return [x + (x > c or (x == c and u != v)) for u, x in enumerate(colors)]


def _orbits(n, gens):
    """Orbit representative of each vertex under the group the maps generate."""
    rep = list(range(n))

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for gen in gens:
        for v, w in enumerate(gen):
            if v != w:
                a, b = find(v), find(w)
                if a != b:
                    rep[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def _ahu_string(g: SerreGraph, dist) -> str:
    children = [[] for _ in range(g.nv)]
    for u, w in zip(g.src, g.dst):
        if dist[w] == dist[u] + 1:
            children[u].append(w)

    def canon(v):
        return "(" + "".join(sorted(canon(c) for c in children[v])) + ")"

    return canon(0)


def _canonical_records(b: Ball) -> tuple:
    """(root cell sizes, minimum leaf certificate) of a non-tree ball."""
    g, n = b.graph, b.graph.nv
    hl = [g.half_loop_count(v) for v in range(n)]
    fl = [g.full_loop_pairs(v) for v in range(n)]
    dst = g.dst
    nbr = [[dst[e] for e in g.out_edges(v) if dst[e] != v] for v in range(n)]
    mult = [Counter(ws).items() for ws in nbr]
    seed = [(b.dist[v], g.degree(v), hl[v], fl[v]) for v in range(n)]
    root_colors = _refine(_rank(seed), nbr)
    sizes = Counter(root_colors)
    cell_sizes = tuple(sizes[c] for c in range(len(sizes)))

    gens = []  # automorphisms found so far, as vertex maps
    path = []  # the vertex individualized at each level of the current node
    first = best = None  # (certificate, vertex at each position, path)
    nodes = 0

    def leaf(pos):
        nonlocal first, best
        at = [0] * n
        for v, p in enumerate(pos):
            at[p] = v
        cert = tuple(
            (hl[v], fl[v], tuple(sorted([(pos[w], m) for w, m in mult[v]]))) for v in at
        )
        if first is None:
            first = best = (cert, at, path[:])
            return None
        for ref_cert, ref_at, ref_path in (first, best):
            if cert == ref_cert:
                # the automorphism fixes the common prefix of the two paths
                # and maps the current child where they part onto the
                # reference's child there, which is explored: return there
                gens.append([ref_at[p] for p in pos])
                return next(lv for lv, (u, w) in enumerate(zip(path, ref_path)) if u != w)
        if cert < best[0]:
            best = (cert, at, path[:])
        return None

    def search(colors):
        nonlocal nodes
        nodes += 1
        if nodes > SEARCH_BUDGET:
            raise ValueError(
                f"pattern search budget exceeded: more than {SEARCH_BUDGET} nodes on a "
                f"ball with nv={n}, ne={g.ne}, radius={b.radius}, root cell sizes "
                f"{list(cell_sizes)}; use a smaller radius"
            )
        counts = Counter(colors)
        target = next((c for c in range(len(counts)) if counts[c] > 1), None)
        if target is None:
            return leaf(colors)
        level = len(path)
        tried, known, rep = [], 0, range(n)
        for v in [u for u in range(n) if colors[u] == target]:
            if len(gens) > known:
                # orbits of the automorphisms found that fix the path
                known = len(gens)
                rep = _orbits(n, [a for a in gens if all(a[p] == p for p in path)])
            if any(rep[u] == rep[v] for u in tried):
                continue
            tried.append(v)
            path.append(v)
            back = search(_refine(_individualize(colors, v), nbr))
            path.pop()
            if back is not None and back < level:
                return back
        return None

    search(root_colors)
    return (cell_sizes, best[0])


def pattern_of_ball(b: Ball) -> Pattern:
    g = b.graph
    tree = b.is_tree
    if tree:
        key = ("t", b.radius, _ahu_string(g, b.dist))
    else:
        key = ("g", b.radius, _canonical_records(b))
    return Pattern(radius=b.radius, nv=g.nv, ne=g.ne, is_tree=tree, key=key)


def pattern(g: SerreGraph, root: int, r: int) -> Pattern:
    return pattern_of_ball(ball(g, root, r))


def tree_pattern(d: int, r: int) -> Pattern:
    """Pattern of the radius-r ball in the d-regular tree."""
    rg = tree_ball(d, r)
    return pattern_of_ball(ball(rg.graph, rg.root, r))
