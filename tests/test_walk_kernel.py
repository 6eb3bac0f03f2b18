"""The edge-indexed walk kernel against the hand-written loops it replaced.

Each reference below is a plain-Python propagation loop, kept as the
specification of the counts. The kernel switches from uint64 to Python ints
when the max-degree cap reaches 2^64; on K5 that happens at n = 32 for all
walks (4^32 = 2^64) and at n = 41 for reduced walks (4*3^40 > 2^64), so the
lengths below cross it.
"""

from fractions import Fraction

import numpy as np
import pytest

from serregraph import census
from serregraph.bounds import lemma_visits_lower
from serregraph.core import (
    _edge_arrays,
    _walk_inflows,
    _walk_words,
    add_half_loops_to_regularize,
    complete_graph,
    from_edges,
    half_loop_rose,
    petersen,
    rose,
    tree_radius,
)
from serregraph.nullcycles import nonbacktracking_hit_fractions
from serregraph.percolation import cover_sphere_sizes, percolate
from serregraph.spectral import (_b_operator, hitting_probabilities, nonbacktracking_closed_counts,
                                 walk_counts)


def _nb_counts(g, o, kmax):
    """nb[j][x] = backtrack-free j-walks from o to x, as fungroup.p_k_distribution
    reads them from the kernel."""
    return [c.tolist() for c in _walk_inflows(g.nv, _edge_arrays(g), o, kmax, reduced=True)]


def ref_walk_counts(g, o, nmax):
    rows = [[g.dst[e] for e in g.out_edges(v)] for v in range(g.nv)]
    vec = [0] * g.nv
    vec[o] = 1
    out = [vec]
    for _ in range(nmax):
        new = [0] * g.nv
        for v, x in enumerate(out[-1]):
            if x:
                for w in rows[v]:
                    new[w] += x
        out.append(new)
    return out


def ref_nb_counts(g, o, kmax):
    nb = [[0] * g.nv for _ in range(kmax + 1)]
    nb[0][o] = 1
    cur = [1 if g.src[e] == o else 0 for e in range(g.ne)]
    for j in range(1, kmax + 1):
        for e in range(g.ne):
            if cur[e]:
                nb[j][g.dst[e]] += cur[e]
        if j == kmax:
            break
        nxt = [0] * g.ne
        for e in range(g.ne):
            c = cur[e]
            if not c:
                continue
            for f in g.out_edges(g.dst[e]):
                if f != g.inv[e]:
                    nxt[f] += c
        cur = nxt
    return nb


def ref_closed_counts(g, o, nmax):
    succ = [[f for f in g.out_edges(g.dst[e]) if f != g.inv[e]] for e in range(g.ne)]
    into_o = [e for e in range(g.ne) if g.dst[e] == o]
    x = [1 if g.src[e] == o else 0 for e in range(g.ne)]
    out = [1]
    for n in range(1, nmax + 1):
        out.append(sum(x[e] for e in into_o))
        if n == nmax:
            break
        new = [0] * g.ne
        for e in range(g.ne):
            if x[e]:
                for f in succ[e]:
                    new[f] += x[e]
        x = new
    return out


def ref_hit_fractions(g, root, targets, nmax):
    d = g.degree(root)
    tset = set(targets)
    out = [Fraction(1 if root in tset else 0)]
    x = [0] * g.ne
    for e in g.out_edges(root):
        x[e] += 1
    for k in range(1, nmax + 1):
        hits = sum(x[e] for e in range(g.ne) if g.dst[e] in tset)
        out.append(Fraction(hits, d * (d - 1) ** (k - 1)))
        if k == nmax:
            break
        new = [0] * g.ne
        for e in range(g.ne):
            if x[e]:
                for f in g.out_edges(g.dst[e]):
                    if f != g.inv[e]:
                        new[f] += x[e]
        x = new
    return out


def ref_cover_sphere_sizes(g, root, nmax):
    allowed = [g.inv[e] != e for e in range(g.ne)]
    cur = [0] * g.ne
    for e in g.out_edges(root):
        if allowed[e]:
            cur[e] += 1
    sizes = [1]
    for n in range(1, nmax + 1):
        sizes.append(sum(cur))
        if n == nmax:
            break
        inflow = [0] * g.nv
        for e in range(g.ne):
            inflow[g.dst[e]] += cur[e]
        cur = [inflow[g.src[e]] - cur[g.inv[e]] if allowed[e] else 0 for e in range(g.ne)]
    return sizes


def ref_apply_b(g, x):
    vsum = np.zeros(g.nv)
    np.add.at(vsum, np.fromiter(g.dst, dtype=np.int64, count=g.ne), x)
    src = np.fromiter(g.src, dtype=np.int64, count=g.ne)
    invperm = np.fromiter(g.inv, dtype=np.int64, count=g.ne)
    return vsum[src] - x[invperm]


def _cluster():
    w = percolate(8, 8, 0.6, 1)
    return add_half_loops_to_regularize(w.cluster, 4), w.cluster_root


def _flat(rows):
    return [x for row in rows for x in row]


def _assert_ints(values):
    assert all(type(x) is int for x in values)


def test_walk_counts_cross_the_word_size_switch():
    k5 = complete_graph(5)
    got = walk_counts(k5, 0, 40)
    assert got == ref_walk_counts(k5, 0, 40)
    assert got[32][0] == (4 ** 32 + 4) // 5  # closed walks of K5
    _assert_ints(_flat(got))


def test_reduced_counts_cross_the_word_size_switch():
    k5 = complete_graph(5)
    nb = _nb_counts(k5, 0, 41)
    assert nb == ref_nb_counts(k5, 0, 41)
    assert sum(nb[41]) == 4 * 3 ** 40
    _assert_ints(_flat(nb))
    closed = nonbacktracking_closed_counts(k5, 0, 41)
    assert closed == ref_closed_counts(k5, 0, 41)
    _assert_ints(closed)
    q = nonbacktracking_hit_fractions(k5, 0, {0, 3}, 41)
    assert q == ref_hit_fractions(k5, 0, {0, 3}, 41)
    assert all(type(x) is Fraction for x in q)
    sizes = cover_sphere_sizes(k5, 0, 41)
    assert sizes == ref_cover_sphere_sizes(k5, 0, 41)
    _assert_ints(sizes)


@pytest.mark.parametrize("name", ["rose2", "hrose3", "cluster"])
def test_kernel_matches_loops_with_loops_and_multi_edges(name):
    g, o = {
        "rose2": lambda: (rose(2), 0),
        "hrose3": lambda: (half_loop_rose(3), 0),
        "cluster": _cluster,
    }[name]()
    n = 12
    assert walk_counts(g, o, n) == ref_walk_counts(g, o, n)
    assert _nb_counts(g, o, n) == ref_nb_counts(g, o, n)
    assert nonbacktracking_closed_counts(g, o, n) == ref_closed_counts(g, o, n)
    assert nonbacktracking_hit_fractions(g, o, {o}, n) == ref_hit_fractions(g, o, {o}, n)
    assert cover_sphere_sizes(g, o, n) == ref_cover_sphere_sizes(g, o, n)
    _assert_ints(_flat(walk_counts(g, o, n)) + cover_sphere_sizes(g, o, n))


@pytest.mark.parametrize("g", [petersen(), rose(2), half_loop_rose(3), _cluster()[0]],
                         ids=lambda g: g.name or "g")
def test_float_b_step_is_bit_identical(g):
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.random(g.ne)
        assert np.array_equal(_b_operator(g)(x), ref_apply_b(g, x))


def _mixed():
    # 3-regular: a double edge 0-1, a half-loop at 0 and a full loop at 2
    return from_edges(3, [(0, 1), (0, 1), (1, 2), (2, 2)], half_loops=[0], name="mixed")


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("g", [complete_graph(5), rose(2), half_loop_rose(3), _mixed(), _cluster()[0]],
                         ids=lambda g: g.name or "cluster")
def test_root_block_equals_stacked_single_root_runs(g, reduced):
    # 66 steps cross the uint64 -> Python-int switch on every fixture, for
    # reduced walks too (3 * 2^63 >= 2^64 at D = 3)
    n = 66
    roots = np.array([g.nv - 1, 0, g.nv // 2, 0])
    edges = _edge_arrays(g)
    block = list(_walk_inflows(g.nv, edges, roots, n, reduced))
    single = [list(_walk_inflows(g.nv, edges, int(o), n, reduced)) for o in roots]
    assert block[0].dtype == np.uint64 and block[-1].dtype == object
    for step, inflow in enumerate(block):
        assert inflow.shape == (g.nv, len(roots))
        assert all(one[step].dtype == inflow.dtype for one in single)
        assert inflow.T.tolist() == [one[step].tolist() for one in single]
    _assert_ints(_flat(block[-1].tolist()))


@pytest.mark.parametrize("root", [-1, 10, np.array([0, 10]), np.array([-1, 3])],
                         ids=["neg", "past-end", "block-past-end", "block-neg"])
@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
def test_kernel_rejects_roots_off_the_graph(root, reduced):
    # a negative root used to index from the end: vertex 9's counts for -1
    g = petersen()
    bad = root if np.ndim(root) == 0 else root[(root < 0) | (root >= g.nv)][0]
    with pytest.raises(ValueError, match=f"root {bad} is not a vertex \\(0..9\\)"):
        next(_walk_inflows(g.nv, _edge_arrays(g), root, 2, reduced))


@pytest.mark.parametrize("reader", [walk_counts, nonbacktracking_closed_counts, _nb_counts,
                                    cover_sphere_sizes])
def test_kernel_readers_reject_root_minus_one(reader):
    with pytest.raises(ValueError, match="root -1 is not a vertex"):
        reader(petersen(), -1, 2)


@pytest.mark.parametrize("target", [-1, 10])
def test_hitting_probabilities_rejects_targets_off_the_graph(target):
    # -1 used to count vertex 9's walks as hits
    with pytest.raises(ValueError, match=f"target {target} is not a vertex \\(0..9\\)"):
        hitting_probabilities(petersen(), 0, [0, target], 2)


@pytest.mark.parametrize("root", [-1, 10])
@pytest.mark.parametrize("reader", [
    lambda g, v: census.gamma_k(g, v, 5),
    lambda g, v: tree_radius(g, v, 2),
    lambda g, v: lemma_visits_lower(g, v, 12, 5, 0.5, 0),
    lambda g, v: _walk_words(g, v, 0, 5, 100),
    lambda g, v: _walk_words(g, 0, v, 5, 100),
], ids=["gamma_k", "tree_radius", "visits", "walk-from", "walk-to"])
def test_walk_enumerations_reject_roots_off_the_graph(reader, root):
    # -1 used to read vertex 9's edges (gamma_5 read 0 where vertex 9 has 12,
    # tree_radius read 1); 10 ended in an IndexError
    with pytest.raises(ValueError, match=f"root {root} is not a vertex \\(0..9\\)"):
        reader(petersen(), root)
