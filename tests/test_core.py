import pytest

from serregraph import core
from serregraph.core import (
    SerreGraph,
    Walk,
    add_half_loops_to_regularize,
    adjacency,
    ball,
    cayley_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    distances_from,
    from_edges,
    half_loop_rose,
    induced_subgraph,
    is_connected,
    is_tree,
    petersen,
    prism,
    rose,
    schreier_quotient,
    split_full_loops,
    tree_ball,
    tree_m_ball,
    triangle_tree_ball,
    validate,
)


def test_validate_good_graphs():
    for g, d in ((complete_graph(4), 3), (petersen(), 3), (cycle_graph(6), 2),
                 (rose(2), 4), (half_loop_rose(3), 3), (prism(6), 3)):
        rep = validate(g)
        assert rep.ok and rep.regular_degree == d, g


def test_degree_conventions():
    g = rose(2)
    assert g.degree(0) == 4
    assert g.half_loop_count(0) == 0
    assert g.full_loop_pairs(0) == 2
    h = half_loop_rose(3)
    assert h.degree(0) == 3
    assert h.half_loop_count(0) == 3
    assert h.full_loop_pairs(0) == 0


def test_validate_reports_broken_involution():
    # inv(inv(e)) != e
    g = SerreGraph(2, src=[0, 1, 0], dst=[1, 0, 1], inv=[1, 2, 2])
    rep = validate(g)
    assert not rep.ok
    assert any("0" in p for p in rep.problems)

    # involution does not swap endpoints
    g2 = SerreGraph(3, src=[0, 1, 1, 2], dst=[1, 0, 2, 1], inv=[1, 0, 3, 2])
    assert validate(g2).ok
    g3 = SerreGraph(3, src=[0, 1, 1, 2], dst=[1, 0, 2, 1], inv=[2, 3, 0, 1])
    rep3 = validate(g3)
    assert not rep3.ok


def test_constructor_range_checks():
    with pytest.raises(ValueError):
        SerreGraph(1, src=[0], dst=[1], inv=[0])
    with pytest.raises(ValueError):
        SerreGraph(1, src=[0], dst=[0], inv=[5])
    with pytest.raises(ValueError):
        SerreGraph(1, src=[0, 0], dst=[0], inv=[0])


def test_walk_vertices_and_closure():
    g = cycle_graph(3)
    # follow the directed ids around the triangle
    e01 = next(e for e in g.out_edges(0) if g.dst[e] == 1)
    e12 = next(e for e in g.out_edges(1) if g.dst[e] == 2)
    e20 = next(e for e in g.out_edges(2) if g.dst[e] == 0)
    w = Walk(0, (e01, e12, e20))
    assert w.vertices(g) == [0, 1, 2, 0]
    assert w.is_closed(g)
    with pytest.raises(ValueError):
        Walk(0, (e12,)).vertices(g)


def test_adjacency_row_sums_are_degrees():
    for g in (petersen(), rose(2), half_loop_rose(3), complete_graph(5)):
        A = adjacency(g)
        assert list(A.sum(axis=1)) == list(g.degrees)
        assert (A == A.T).all()


def test_distances_and_connectivity():
    g = petersen()
    dist = distances_from(g, 0)
    assert max(dist.values()) == 2 and len(dist) == 10
    assert is_connected(g)
    two = disjoint_union(complete_graph(4), complete_graph(4))
    assert not is_connected(two)
    assert len(core.connected_components(two)) == 2
    assert validate(two).ok and validate(two).regular_degree == 3


def test_is_tree():
    assert is_tree(tree_ball(3, 3).graph)
    assert not is_tree(cycle_graph(6))
    assert not is_tree(rose(1))
    assert not is_tree(half_loop_rose(1))


def test_ball_extraction():
    b = ball(cycle_graph(6), 2, 2)
    assert b.graph.nv == 5 and b.is_tree
    assert b.dist[0] == 0 and max(b.dist) == 2
    bp = ball(petersen(), 0, 1)
    assert bp.graph.nv == 4 and bp.is_tree  # a claw
    whole = ball(petersen(), 3, 2)
    assert whole.graph.nv == 10 and not whole.is_tree


def test_induced_subgraph_keeps_involution():
    g = petersen()
    sub, back = induced_subgraph(g, [0, 1, 2, 5])
    assert validate(sub).ok
    assert sorted(back) == [0, 1, 2, 5]


def test_ball_edges_match_a_full_edge_scan():
    """Balls keep the parent's edge-id order, as a scan of every edge does."""
    from serregraph.limits import configuration_model

    graphs = [petersen(), prism(5), rose(2), half_loop_rose(3), configuration_model(3, 64, seed=2)]
    graphs.append(from_edges(3, [(0, 1), (0, 1), (1, 2), (2, 2)], half_loops=[0, 2]))
    for g in graphs:
        for v in range(g.nv):
            for r in range(4):
                b = ball(g, v, r)
                old_to_new = {w: i for i, w in enumerate(b.new_to_old)}
                keep = [e for e in range(g.ne) if g.src[e] in old_to_new and g.dst[e] in old_to_new]
                eid = {e: i for i, e in enumerate(keep)}
                assert b.graph.src == tuple(old_to_new[g.src[e]] for e in keep)
                assert b.graph.dst == tuple(old_to_new[g.dst[e]] for e in keep)
                assert b.graph.inv == tuple(eid[g.inv[e]] for e in keep)


def test_regularize_with_half_loops():
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    g = add_half_loops_to_regularize(path, 3)
    rep = validate(g)
    assert rep.ok and rep.regular_degree == 3
    assert g.half_loop_count(0) == 2 and g.half_loop_count(1) == 1
    with pytest.raises(ValueError):
        add_half_loops_to_regularize(complete_graph(5), 3)


def test_split_full_loops_preserves_adjacency():
    g = rose(2)
    s = split_full_loops(g)
    assert validate(s).ok
    assert s.degree(0) == 4
    assert s.half_loop_count(0) == 4
    assert (adjacency(s) == adjacency(g)).all()
    # untouched on loop-free graphs
    p = split_full_loops(petersen())
    assert p.inv == petersen().inv


def test_tree_m_ball_on_empty_graph_is_tree_ball():
    lone = SerreGraph(1, [], [], [])
    got = tree_m_ball(lone, 3, 0, 3)
    want = ball(tree_ball(3, 3).graph, 0, 3)
    assert got.pattern() == want.pattern()


def test_tree_m_ball_degrees():
    b = tree_m_ball(complete_graph(4), 5, 0, 2)
    g = b.graph
    # interior vertices all have degree 5; boundary ones at distance 2 do not
    for v in range(g.nv):
        if b.dist[v] < 2:
            assert g.degree(v) == 5
    assert not b.is_tree  # K4 triangles survive inside the ball
    with pytest.raises(ValueError):
        tree_m_ball(complete_graph(4), 2, 0, 1)


def test_triangle_tree_ball_shape():
    rg = triangle_tree_ball(3)
    g = rg.graph
    rep = validate(g)
    assert rep.ok
    dist = distances_from(g, rg.root)
    # interior vertices are 3-regular
    for v in range(g.nv):
        if dist[v] < 3:
            assert g.degree(v) == 3, v
    # root sits on a triangle
    nb = {g.dst[e] for e in g.out_edges(0)}
    assert any({g.dst[e] for e in g.out_edges(w)} & nb - {w, 0} for w in nb)


def test_cayley_z4():
    plus = (1, 2, 3, 0)
    minus = (3, 0, 1, 2)
    g = cayley_graph([plus, minus])
    rep = validate(g)
    assert rep.ok and rep.regular_degree == 2 and g.nv == 4
    assert is_connected(g)


def test_cayley_transpositions_give_half_loop_free_graph():
    # S3 on 6 elements via right multiplication by the three transpositions
    import itertools

    elems = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(elems)}

    def right_mult(t):
        # x -> x * t (apply t first is left; here walks multiply on the right)
        return tuple(idx[tuple(x[t[j]] for j in range(3))] for x in elems)

    gens = [right_mult(t) for t in [(1, 0, 2), (0, 2, 1), (2, 1, 0)]]
    g = cayley_graph(gens)
    rep = validate(g)
    assert rep.ok and rep.regular_degree == 3 and g.nv == 6
    assert all(g.inv[e] != e for e in range(g.ne))  # involutions pair across vertices


def test_cayley_rejects_bad_generators():
    with pytest.raises(ValueError):
        cayley_graph([(0, 1, 2)])  # identity
    with pytest.raises(ValueError):
        cayley_graph([(1, 2, 0)])  # inverse missing
    with pytest.raises(ValueError):
        cayley_graph([(0, 0, 1)])  # not a permutation


def test_schreier_z4_full_collapse():
    res = schreier_quotient([(1, 2, 3, 0), (3, 0, 1, 2)], 0)
    assert res.graph.nv == 1
    assert res.subgroup_order == 4
    assert res.cover_verified
    assert res.trivial_coset_loops == 2  # one full loop pair
    assert res.graph.degree(0) == 2
    g = res.graph
    assert sum(1 for e in range(g.ne) if g.inv[e] == e) == 0


def test_schreier_z6_half_loop_quotient():
    # Z6 with generators +2, -2, +3; quotient by <+3> gives a triangle with a
    # half-loop at every coset
    p2 = tuple((i + 2) % 6 for i in range(6))
    m2 = tuple((i - 2) % 6 for i in range(6))
    p3 = tuple((i + 3) % 6 for i in range(6))
    res = schreier_quotient([p2, m2, p3], 2)
    q = res.graph
    assert q.nv == 3 and res.subgroup_order == 2
    assert res.cover_verified
    assert validate(q).ok and validate(q).regular_degree == 3
    for v in range(3):
        assert q.half_loop_count(v) == 1
    assert res.trivial_coset_loops == 1
    # the cayley graph is a 2-to-1 cover
    assert res.cayley.nv == 2 * q.nv


def test_schreier_requires_generating_set():
    p3 = tuple((i + 3) % 6 for i in range(6))
    with pytest.raises(ValueError):
        schreier_quotient([p3], 0)
