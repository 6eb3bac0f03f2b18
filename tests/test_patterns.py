import itertools
import random
from collections import Counter, defaultdict

import networkx as nx
import pytest

from serregraph import core, patterns
from serregraph.core import (
    SerreGraph,
    cycle_graph,
    from_edges,
    half_loop_rose,
    petersen,
    rose,
    tree_ball,
)
from serregraph.limits import configuration_model
from serregraph.patterns import Pattern, pattern, pattern_of_ball, tree_pattern


def relabel(g, perm):
    """Permute vertex names; edge ids are shuffled too to stress invariance."""
    order = list(range(g.ne))
    random.Random(11).shuffle(order)
    pos = {e: i for i, e in enumerate(order)}
    src = [perm[g.src[e]] for e in order]
    dst = [perm[g.dst[e]] for e in order]
    inv = [pos[g.inv[e]] for e in order]
    return SerreGraph(g.nv, src, dst, inv)


def test_tree_fast_path_agrees_with_tree_ball():
    for d in (2, 3, 4):
        for r in (0, 1, 2, 3):
            p = tree_pattern(d, r)
            assert p.is_tree
            rg = tree_ball(d, r)
            assert p == pattern(rg.graph, rg.root, r)


def test_cycle_ball_is_a_path():
    g = cycle_graph(8)
    path5 = from_edges(5, [(i, i + 1) for i in range(4)])
    want = pattern(path5, 2, 2)
    for v in range(8):
        assert pattern(g, v, 2) == want
    # radius big enough to close the cycle: no longer a tree
    p = pattern(g, 0, 4)
    assert not p.is_tree and p.nv == 8


def test_vertex_transitive_graphs_have_one_pattern_per_radius():
    g = petersen()
    for r in (1, 2, 3):
        pats = {pattern(g, v, r) for v in range(10)}
        assert len(pats) == 1
    assert pattern(g, 0, 1) == tree_pattern(3, 1)
    assert pattern(g, 0, 2) != tree_pattern(3, 2)


def test_relabeling_invariance():
    rnd = random.Random(5)
    for g in (petersen(), cycle_graph(7), core.prism(4), rose(2)):
        perm = list(range(g.nv))
        rnd.shuffle(perm)
        h = relabel(g, perm)
        root = rnd.randrange(g.nv)
        for r in (1, 2):
            assert pattern(g, root, r) == pattern(h, perm[root], r)


def test_loop_kinds_distinguish_patterns():
    a = pattern(rose(1), 0, 1)          # one full loop, degree 2
    b = pattern(half_loop_rose(2), 0, 1)  # two half-loops, degree 2
    assert a.nv == b.nv == 1
    assert a != b


def test_multiplicity_distinguishes_patterns():
    # both 3-regular on two vertices with six directed edges
    a = from_edges(2, [(0, 1), (0, 1)], half_loops=[0, 1])
    b = from_edges(2, [(0, 1)], half_loops=[0, 0, 1, 1])
    pa, pb = pattern(a, 0, 1), pattern(b, 0, 1)
    assert pa.ne == pb.ne == 6
    assert pa != pb


def test_radius_is_part_of_identity():
    g = petersen()
    assert pattern(g, 0, 2) != pattern(g, 0, 3)
    assert pattern(g, 0, 2).nv == pattern(g, 0, 3).nv == 10


def test_patterns_hashable():
    d = {tree_pattern(3, 2): "tree", pattern(petersen(), 0, 2): "pete"}
    assert d[tree_pattern(3, 2)] == "tree"
    assert d[pattern(petersen(), 3, 2)] == "pete"


def test_symmetric_cells_stay_canonical():
    # complete graph: maximal residual symmetry exercises the search
    g = core.complete_graph(6)
    p0 = pattern(g, 0, 1)
    for v in range(1, 6):
        assert pattern(g, v, 1) == p0
    assert not p0.is_tree


def test_pattern_fields():
    p = pattern(cycle_graph(6), 1, 2)
    assert isinstance(p, Pattern)
    assert p.radius == 2 and p.nv == 5 and p.ne == 8 and p.is_tree


def hypercube(k):
    n = 1 << k
    return from_edges(n, [(v, v | 1 << i) for v in range(n) for i in range(k) if not v >> i & 1])


def as_networkx(b):
    """The ball as a simple graph: vertices carry (dist, half-loops, full-loop
    pairs), edges between distinct vertices carry their multiplicity."""
    g = b.graph
    h = nx.Graph()
    for v in range(g.nv):
        h.add_node(v, key=(b.dist[v], g.half_loop_count(v), g.full_loop_pairs(v)))
    mult = Counter((g.src[e], g.dst[e]) for e in range(g.ne) if g.src[e] < g.dst[e])
    for (u, w), m in mult.items():
        h.add_edge(u, w, m=m)
    return h


def test_pattern_equality_matches_networkx_isomorphism():
    graphs = [configuration_model(d, n, seed=0) for d in (3, 4) for n in (16, 32, 64)]
    graphs += [petersen(), core.complete_graph(6), core.prism(5), rose(2), half_loop_rose(3)]
    # 4-cycles that differ only in which edges are doubled
    graphs += [
        from_edges(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0)]),
        from_edges(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (3, 0)]),
    ]
    groups = defaultdict(list)
    for g in graphs:
        for v in range(g.nv):
            for r in (0, 1, 2):
                b = core.ball(g, v, r)
                if not b.is_tree:
                    groups[(b.graph.nv, b.graph.ne, r)].append((pattern_of_ball(b), as_networkx(b)))
    same = pairs = 0
    for group in groups.values():
        for (p, h), (q, k) in itertools.combinations(group, 2):
            iso = nx.is_isomorphic(
                h,
                k,
                node_match=lambda a, c: a["key"] == c["key"],
                edge_match=lambda a, c: a["m"] == c["m"],
            )
            assert (p == q) == iso
            same += iso
            pairs += 1
    # both outcomes are exercised
    assert pairs > 1000 and 0 < same < pairs


@pytest.mark.parametrize("k", [6, 7, 8])
def test_hypercube_balls_have_one_pattern(k):
    g = hypercube(k)
    rnd = random.Random(k)
    roots = rnd.sample(range(g.nv), 6)
    pats = {pattern(g, v, 2) for v in roots}
    assert len(pats) == 1
    p = pats.pop()
    assert not p.is_tree and p.nv == 1 + k + k * (k - 1) // 2
    perm = list(range(g.nv))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert pattern(h, perm[roots[0]], 2) == p


def test_search_budget_names_the_ball(monkeypatch):
    monkeypatch.setattr(patterns, "SEARCH_BUDGET", 10)
    with pytest.raises(ValueError, match=r"nv=29, ne=98, radius=2, root cell sizes \[1, 7, 21\]"):
        pattern(hypercube(7), 0, 2)


def test_hypercube_search_stays_well_under_budget(monkeypatch):
    # one percent of the budget is enough for every ball up to Q8
    monkeypatch.setattr(patterns, "SEARCH_BUDGET", patterns.SEARCH_BUDGET // 100)
    for k in (6, 7, 8):
        assert not pattern(hypercube(k), 0, 2).is_tree
