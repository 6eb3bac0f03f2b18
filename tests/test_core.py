import itertools

import numpy as np
import pytest

from serregraph import core
from serregraph.core import (
    SerreGraph,
    Walk,
    _edge_arrays,
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
    tree_radius,
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


# -- the array-built constructor ----------------------------------------------


def _first_bad_edge(nv, src, dst, inv):
    """The per-edge scan the constructor's vectorized checks replace."""
    for e in range(len(src)):
        if not (0 <= src[e] < nv and 0 <= dst[e] < nv):
            return f"edge {e} endpoint out of range"
        if not 0 <= inv[e] < len(src):
            return f"edge {e} involution id out of range"
    return None


def test_first_bad_edge_messages_match_a_per_edge_scan():
    base = disjoint_union(petersen(), prism(5))
    nv, ne = base.nv, base.ne
    bads = [("src", -1), ("dst", nv), ("inv", ne), ("inv", -3), ("src", nv + 7)]
    for positions in ([0], [ne - 1], [3, 17], [29, 4, 11], [12, 12], list(range(0, ne, 7))):
        for shift in range(len(bads)):
            arrays = {"src": list(base.src), "dst": list(base.dst), "inv": list(base.inv)}
            for j, e in enumerate(positions):
                field, value = bads[(j + shift) % len(bads)]
                arrays[field][e] = value
            want = _first_bad_edge(nv, arrays["src"], arrays["dst"], arrays["inv"])
            with pytest.raises(ValueError) as exc:
                SerreGraph(nv, **arrays)
            assert str(exc.value) == want, (positions, shift)


def test_endpoint_message_takes_precedence_at_one_edge():
    with pytest.raises(ValueError, match=r"^edge 1 endpoint out of range$"):
        SerreGraph(2, src=[0, 5, 0], dst=[1, 0, 1], inv=[1, 9, 2])


def test_integers_past_int64_are_out_of_range():
    for big in (2 ** 63, 2 ** 64, 2 ** 70, -(2 ** 63) - 1, -(2 ** 70)):
        with pytest.raises(ValueError, match=r"^edge 1 endpoint out of range$"):
            SerreGraph(2, src=[0, big], dst=[1, 0], inv=[1, 0])
        with pytest.raises(ValueError, match=r"^edge 0 involution id out of range$"):
            SerreGraph(2, src=[0, 1], dst=[1, 0], inv=[big, 0])
    # a huge value at a later edge does not hide an earlier bad one
    with pytest.raises(ValueError, match=r"^edge 0 involution id out of range$"):
        SerreGraph(2, src=[0, 1], dst=[1, 2 ** 70], inv=[5, 0])


def test_non_integer_entries_are_rejected():
    for bad in (0.5, 1.0, "0", None):
        with pytest.raises(ValueError, match=r"^edge 1 endpoint is not an integer$"):
            SerreGraph(2, src=[0, bad], dst=[1, 0], inv=[1, 0])
        with pytest.raises(ValueError, match=r"^edge 1 involution id is not an integer$"):
            SerreGraph(2, src=[0, 1], dst=[1, 0], inv=[1, bad])
    with pytest.raises(ValueError, match="not an integer"):
        SerreGraph(2, src=np.array([0.0, 1.0]), dst=[1, 0], inv=[1, 0])
    with pytest.raises(ValueError):  # ragged entries
        SerreGraph(2, src=[0, [1]], dst=[1, 0], inv=[1, 0])


def test_empty_graph_and_other_integer_inputs_build():
    g = SerreGraph(0, (), (), ())
    assert (g.nv, g.ne, g.degrees) == (0, 0, ())
    assert all(a.dtype == np.int64 and a.size == 0 for a in _edge_arrays(g))
    lone = SerreGraph(3, [], [], [])
    assert lone.degrees == (0, 0, 0) and lone.out_edges(2) == ()
    # numpy integers, unsigned arrays and generators are accepted as before
    a = SerreGraph(2, np.array([0, 1], dtype=np.uint8), (x for x in (1, 0)),
                   [np.int64(1), 0])
    assert (a.src, a.dst, a.inv) == ((0, 1), (1, 0), (1, 0))


def test_public_edge_tuples_hold_python_ints():
    src = np.array([0, 1, 1, 2])
    g = SerreGraph(3, src, np.array([1, 0, 2, 1]), np.array([1, 0, 3, 2]))
    for t in (g.src, g.dst, g.inv, g.degrees):
        assert type(t) is tuple and all(type(x) is int for x in t)
    # the graph keeps its own copy: the caller's array stays writeable and
    # changing it later does not reach the graph
    src[0] = 2
    assert g.src[0] == 0 and _edge_arrays(g)[0][0] == 0


def test_edge_arrays_are_kept_and_read_only():
    g = petersen()
    first = _edge_arrays(g)
    assert all(a is b for a, b in zip(first, _edge_arrays(g)))
    for a, t in zip(first, (g.src, g.dst, g.inv)):
        assert a.dtype == np.int64 and a.tolist() == list(t)
        with pytest.raises(ValueError):
            a[0] = 1


def test_out_edges_and_degrees_match_a_scan_of_src():
    graphs = [petersen(), rose(2), half_loop_rose(3), prism(6),
              disjoint_union(cycle_graph(4), complete_graph(5)),
              SerreGraph(4, [3, 0, 3, 1, 0, 3], [3, 1, 0, 0, 3, 3], [0, 3, 4, 1, 2, 5])]
    for g in graphs:
        for v in range(g.nv):
            want = tuple(e for e in range(g.ne) if g.src[e] == v)
            assert g.out_edges(v) == want
            assert g.degree(v) == len(want) == g.degrees[v]


def _loop_helpers(g, h, d):
    """The per-edge loops that adjacency, disjoint_union,
    add_half_loops_to_regularize and split_full_loops replace by array builds."""
    A = np.zeros((g.nv, g.nv), dtype=np.int64)
    for e in range(g.ne):
        A[g.src[e], g.dst[e]] += 1
    union = (list(g.src) + [v + g.nv for v in h.src], list(g.dst) + [v + g.nv for v in h.dst],
             list(g.inv) + [e + g.ne for e in h.inv])
    src, dst, inv = list(g.src), list(g.dst), list(g.inv)
    for v in range(g.nv):
        for _ in range(d - g.degree(v)):
            e = len(src)
            src.append(v)
            dst.append(v)
            inv.append(e)
    split = list(g.inv)
    for e in range(g.ne):
        if g.src[e] == g.dst[e] and g.inv[e] != e:
            split[e] = e
    return A, tuple(map(tuple, union)), (tuple(src), tuple(dst), tuple(inv)), tuple(split)


def test_array_built_helpers_match_their_loops():
    odd = SerreGraph(4, [3, 0, 3, 1, 0, 3, 2, 2], [3, 1, 0, 0, 3, 3, 2, 2], [0, 3, 4, 1, 2, 5, 7, 6])
    graphs = [petersen(), rose(2), half_loop_rose(3), cycle_graph(5), odd,
              SerreGraph(3, [], [], []), SerreGraph(0, (), (), ())]
    for g in graphs:
        for h in (complete_graph(4), odd, SerreGraph(0, (), (), ())):
            d = max(g.degrees, default=0) + 2
            A, union, regular, split = _loop_helpers(g, h, d)
            assert (adjacency(g) == A).all()
            u = disjoint_union(g, h)
            assert (u.nv, (u.src, u.dst, u.inv)) == (g.nv + h.nv, union)
            r = add_half_loops_to_regularize(g, d)
            assert (r.src, r.dst, r.inv) == regular
            s = split_full_loops(g)
            assert (s.src, s.dst, s.inv) == (g.src, g.dst, split)


def _cayley_loop(gens):
    """The per-edge loop that cayley_graph's array build replaces."""
    n, k = len(gens[0]), len(gens)
    pair = core._involution_pairing(gens)
    src, dst, inv = [], [], []
    for x in range(n):
        for i in range(k):
            src.append(x)
            dst.append(gens[i][x])
            inv.append(gens[i][x] * k + pair[i])
    return tuple(src), tuple(dst), tuple(inv)


def _schreier_loop(gens, s_index, res):
    """The per-edge loop that schreier_quotient's array build replaces."""
    k, coset_of = len(gens), res.coset_of
    pair = core._involution_pairing(gens)
    reps = [coset_of.index(c) for c in range(res.graph.nv)]
    src, dst, inv = [], [], []
    for c, x in enumerate(reps):
        for i in range(k):
            src.append(c)
            dst.append(coset_of[gens[i][x]])
            inv.append(coset_of[gens[i][x]] * k + pair[i])
    return tuple(src), tuple(dst), tuple(inv)


def test_cayley_and_schreier_match_their_loops():
    s3 = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(s3)}

    def right(t):  # right multiplication by t on S3, as a permutation of 0..5
        return tuple(idx[tuple(x[t[j]] for j in range(3))] for x in s3)

    p6 = [tuple((i + a) % 6 for i in range(6)) for a in (1, 5, 2, 4, 3)]
    sets = [[right((1, 0, 2)), right((0, 2, 1))], [right((1, 0, 2)), right((1, 2, 0)), right((2, 0, 1))],
            p6, p6[:2] + [p6[4]], p6[:2] + [p6[4]] * 2]
    for gens in sets:
        g = cayley_graph(gens)
        assert (g.src, g.dst, g.inv) == _cayley_loop(gens)
        for s_index in range(len(gens)):
            res = schreier_quotient(gens, s_index)
            q = res.graph
            assert (q.src, q.dst, q.inv) == _schreier_loop(gens, s_index, res)


# -- tree radius -------------------------------------------------------------------


def _is_tree_by_edge_count(g):
    """The edge-scanning definition tree_radius replaces: connected, no loop
    of either kind, and exactly nv-1 undirected edges."""
    if any(g.inv[e] == e or g.src[e] == g.dst[e] for e in range(g.ne)):
        return False
    return g.nv > 0 and is_connected(g) and g.ne == 2 * (g.nv - 1)


def _tree_radius_by_balls(g, v, rmax):
    """The largest r <= rmax with every ball of radius <= r at v a tree."""
    t = -1
    for r in range(rmax + 1):
        if not _is_tree_by_edge_count(ball(g, v, r).graph):
            break
        t = r
    return t


def tree_radius_fixtures():
    from serregraph.limits import configuration_model

    graphs = [complete_graph(4), petersen(), cycle_graph(3), cycle_graph(6), prism(5), rose(1),
              rose(2), half_loop_rose(1), half_loop_rose(3), tree_ball(3, 3).graph,
              triangle_tree_ball(3).graph, from_edges(1, []), from_edges(2, [(0, 1)]),
              from_edges(3, [(0, 1), (0, 1), (1, 2)]),  # a double edge
              from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 3)], half_loops=[4, 1]),
              split_full_loops(rose(2)), split_full_loops(configuration_model(3, 10, seed=3)),
              add_half_loops_to_regularize(cycle_graph(5), 4),
              add_half_loops_to_regularize(tree_ball(3, 2).graph, 3),
              disjoint_union(cycle_graph(4), tree_ball(3, 2).graph),
              disjoint_union(half_loop_rose(2), from_edges(2, [(0, 1)]))]
    graphs += [configuration_model(d, n, seed=s)
               for d, n in ((1, 12), (2, 16), (3, 20), (4, 12), (5, 8)) for s in range(4)]
    return graphs


def test_tree_radius_matches_the_ball_oracle():
    checked = 0
    for g in tree_radius_fixtures():
        for v in range(g.nv):
            for rmax in range(5):
                assert tree_radius(g, v, rmax) == _tree_radius_by_balls(g, v, rmax), (g, v, rmax)
                checked += 1
    assert checked > 1500


def test_tree_radius_edge_cases():
    assert tree_radius(rose(1), 0, 3) == -1 and tree_radius(half_loop_rose(1), 0, 0) == -1
    assert tree_radius(from_edges(1, []), 0, 0) == 0
    assert tree_radius(cycle_graph(6), 0, 9) == 2  # the radius-3 ball closes the hexagon
    assert tree_radius(cycle_graph(7), 0, 9) == 2  # the edge between the two level-3 vertices
    assert tree_radius(from_edges(2, [(0, 1), (0, 1)]), 0, 4) == 0  # a double edge at level 1
    assert tree_radius(tree_ball(3, 4).graph, 0, 2) == 2
    with pytest.raises(ValueError, match="radius must be >= 0"):
        tree_radius(petersen(), 0, -1)


def test_is_tree_matches_the_edge_count_definition():
    graphs = tree_radius_fixtures() + [
        SerreGraph(0, [], [], []), disjoint_union(tree_ball(3, 1).graph, tree_ball(3, 2).graph)]
    for g in graphs:
        assert is_tree(g) == _is_tree_by_edge_count(g), g
        for v in range(g.nv):
            b = ball(g, v, 2).graph
            assert is_tree(b) == _is_tree_by_edge_count(b), (g, v)


# -- validate ----------------------------------------------------------------------


def _problems_by_edge_loop(g):
    """The per-edge loop that validate's array checks replace."""
    problems = []
    for e in range(g.ne):
        f = g.inv[e]
        if g.inv[f] != e:
            problems.append(f"edge {e}: inv(inv) = {g.inv[f]} != {e}")
        if g.src[f] != g.dst[e] or g.dst[f] != g.src[e]:
            problems.append(f"edge {e}: inverse {f} does not swap endpoints")
    return problems


def test_validate_problems_match_the_edge_loop():
    base = disjoint_union(petersen(), split_full_loops(rose(2)))
    ne = base.ne
    flagged = 0
    for positions in ([0], [ne - 1], [3, 17], [29, 4, 11], list(range(0, ne, 5))):
        for shift in range(3):
            src, dst, inv = list(base.src), list(base.dst), list(base.inv)
            for j, e in enumerate(positions):
                kind = (j + shift) % 3
                if kind == 0:
                    inv[e] = (inv[e] + 1) % ne  # breaks inv(inv) = id, usually the swap too
                elif kind == 1:
                    dst[e] = (dst[e] + 1) % base.nv  # breaks the endpoint swap only
                else:
                    inv[e] = e  # a half-loop id on an edge between two vertices
            g = SerreGraph(base.nv, src, dst, inv)
            rep = validate(g)
            want = _problems_by_edge_loop(g)
            assert rep.problems == want and rep.ok == (not want), (positions, shift)
            flagged += len(want)
    assert flagged > 60
    for g in tree_radius_fixtures():
        assert validate(g).problems == _problems_by_edge_loop(g) == []
