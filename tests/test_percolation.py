"""Window percolation, cover sphere counts, and the growth estimate."""

import math
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest

from serregraph.core import (
    _edge_arrays,
    add_half_loops_to_regularize,
    complete_graph,
    distances_from,
    half_loop_rose,
    tree_ball,
)
from serregraph.percolation import (
    _BLOCK,
    cover_sphere_sizes,
    lower_growth_estimate,
    percolate,
    window_growth,
)
from serregraph.spectral import nonbacktracking_closed_counts


def _brute_sphere_sizes(g, root, nmax):
    # frontier of (vertex, last edge); no immediate reversal, half-loops skipped
    sizes = [1]
    frontier = [(root, None)]
    for _ in range(nmax):
        nxt = []
        for v, last in frontier:
            for e in g.out_edges(v):
                if g.inv[e] == e:
                    continue
                if last is not None and e == g.inv[last]:
                    continue
                nxt.append((g.dst[e], e))
        sizes.append(len(nxt))
        frontier = nxt
    return sizes


def _reference_window(width, height, p, seed):
    """The deque BFS and per-edge loop that percolate's array BFS replaces:
    (mask, coords, src, dst, inv, border distance), or None for a closed
    origin."""
    mask = np.random.Generator(np.random.PCG64(seed)).random((width, height)) < p
    ox, oy = width // 2, height // 2
    if not mask[ox, oy]:
        return mask, None
    index = {(ox, oy): 0}
    coords, dist = [(ox, oy)], [0]
    queue = deque([(ox, oy)])
    while queue:
        x, y = queue.popleft()
        for nb in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if 0 <= nb[0] < width and 0 <= nb[1] < height and mask[nb] and nb not in index:
                index[nb] = len(coords)
                coords.append(nb)
                dist.append(dist[index[(x, y)]] + 1)
                queue.append(nb)
    src, dst, inv = [], [], []
    for v, (x, y) in enumerate(coords):
        for nb in ((x + 1, y), (x, y + 1)):
            if nb in index:
                e = len(src)
                src += [v, index[nb]]
                dst += [index[nb], v]
                inv += [e + 1, e]
    border = [d for (x, y), d in zip(coords, dist) if x in (0, width - 1) or y in (0, height - 1)]
    return mask, (tuple(coords), tuple(src), tuple(dst), tuple(inv), min(border, default=None))


# -- windows ------------------------------------------------------------------


WINDOWS = [
    (1, 1, 1.0, 0),  # one open cell, on the border
    (1, 1, 0.0, 0),  # closed origin
    (1, 40, 0.95, 2),
    (40, 1, 0.95, 3),
    (1, 40, 1.0, 0),
    (40, 1, 1.0, 0),
    (9, 7, 0.0, 4),  # p = 0
    (9, 7, 1.0, 4),  # p = 1
    (15, 15, 0.2, 1),  # closed origin at low p
    (25, 25, 0.5, 8),  # small interior cluster
    (30, 20, 0.8, 6),  # cluster reaching the border
    (300, 300, 0.9, 5),
]


@pytest.mark.parametrize("width,height,p,seed", WINDOWS)
def test_window_matches_the_deque_bfs(width, height, p, seed):
    mask, ref = _reference_window(width, height, p, seed)
    w = percolate(width, height, p, seed)
    assert (w.open_mask == mask).all()
    if ref is None:
        assert w.cluster_root == -1 and w.cluster.nv == 0 and w.border_distance is None
        return
    coords, src, dst, inv, border = ref
    g = w.cluster
    assert w.coords == coords
    assert (g.src, g.dst, g.inv) == (src, dst, inv)
    counts = Counter(src)
    assert g.degrees == tuple(counts[v] for v in range(len(coords)))
    assert w.border_distance == border


@pytest.mark.parametrize("width,height,p,seed", WINDOWS)
def test_coords_equal_the_eager_tuple_and_are_kept(width, height, p, seed):
    w = percolate(width, height, p, seed)
    assert "coords" not in vars(w)
    eager = tuple(zip(w.cell_x.tolist(), w.cell_y.tolist()))
    assert w.coords == eager and all(type(c) is int for xy in w.coords for c in xy)
    assert w.coords is w.coords
    assert len(w.coords) == w.cluster.nv


def test_growth_leaves_the_cluster_tuple_views_unbuilt():
    w = percolate(60, 60, 0.9, 5)
    window_growth(w, 12)
    assert not any(hasattr(w.cluster, slot) for slot in ("_src", "_dst", "_inv", "_out"))
    assert "coords" not in vars(w)


def test_window_growth_peak_memory_stays_small():
    # a 300x300 window at p = 0.9 holds ~81k vertices and ~290k directed
    # edges; keeping them as Python-int tuples put the traced peak at ~64 MB
    tracemalloc.start()
    try:
        w = percolate(300, 300, 0.9, 5)
        window_growth(w, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_window_growth_with_the_ball_peak_memory_stays_below_ten_mb():
    # the growth count reads only the radius-40 ball (~3k vertices); the
    # traced peak was ~26 MB while percolate built the whole cluster graph
    tracemalloc.start()
    try:
        w = percolate(300, 300, 0.9, 5)
        window_growth(w, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def _prefix_subgraph(g, nv):
    """src, dst, inv of g restricted to the edges inside vertices 0..nv-1,
    in g's order, with the edge ids renumbered."""
    src, dst, inv = _edge_arrays(g)
    keep = (src < nv) & (dst < nv)
    renumber = np.cumsum(keep) - 1
    return src[keep], dst[keep], renumber[inv[keep]]


@pytest.mark.parametrize("width,height,p,seed", WINDOWS)
def test_ball_is_the_prefix_induced_subgraph_of_the_cluster(width, height, p, seed):
    w = percolate(width, height, p, seed)
    g = w.cluster
    dist = distances_from(g, 0) if g.nv else {}
    depth = max(dist.values(), default=0)
    assert w.level_ends.size - 1 == depth
    for r in range(depth + 2):
        b = w.ball(r)
        assert b.nv == sum(1 for d in dist.values() if d <= r)
        for got, want in zip(_edge_arrays(b), _prefix_subgraph(g, b.nv)):
            assert np.array_equal(got, want)
    assert "cluster" in vars(w)


def test_ball_and_growth_reject_negative_radii():
    w = percolate(9, 7, 1.0, 4)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        w.ball(-1)
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        window_growth(w, -1)


@pytest.mark.parametrize("width,height,p,seed", WINDOWS)
def test_growth_on_the_ball_equals_the_count_on_the_cluster(width, height, p, seed):
    w = percolate(width, height, p, seed)
    if w.cluster_root < 0:
        return
    depth = w.level_ends.size - 1
    # below, at and past the cluster's depth; the 300x300 window only below,
    # where the count over its whole cluster still takes well under a second
    ns = [40] if depth > 100 else sorted({1, max(1, depth // 2), max(1, depth), depth + 3})
    g = percolate(width, height, p, seed).cluster
    for n in ns:
        assert list(window_growth(w, n).sizes) == cover_sphere_sizes(g, 0, n)
    assert "cluster" not in vars(w)


def test_reference_cases_cover_closed_origins_and_borders():
    # the parametrized cases above include a closed origin at p > 0, an
    # interior cluster and clusters that reach the border
    assert _reference_window(15, 15, 0.2, 1)[1] is None
    assert _reference_window(25, 25, 0.5, 8)[1][4] is None
    assert _reference_window(30, 20, 0.8, 6)[1][4] is not None


def test_full_window_at_p_one():
    w = percolate(6, 5, 1.0, 0)
    assert w.open_mask.all()
    assert w.cluster_size == 30
    assert w.density == 1.0
    assert w.coords[w.cluster_root] == (3, 2)
    # nearest border cell is two lattice steps away
    assert w.border_distance == 2
    assert w.reaches_boundary


def test_empty_cluster_at_p_zero():
    w = percolate(6, 5, 0.0, 0)
    assert w.cluster_size == 0
    assert w.cluster_root == -1
    assert w.density == 0.0
    assert not w.reaches_boundary
    with pytest.raises(ValueError):
        window_growth(w, 10)


def test_window_argument_validation():
    with pytest.raises(ValueError):
        percolate(0, 5, 0.5, 0)
    with pytest.raises(ValueError):
        percolate(5, 5, 1.2, 0)
    for seed in (-1, np.int64(-1), -1.5):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            percolate(5, 5, 0.5, seed)


def test_cluster_is_connected_open_and_rooted_at_origin():
    w = percolate(10, 10, 0.7, 3)
    g = w.cluster
    assert w.coords[w.cluster_root] == (5, 5)
    assert all(w.open_mask[x, y] for x, y in w.coords)
    seen = {w.cluster_root}
    stack = [w.cluster_root]
    while stack:
        v = stack.pop()
        for e in g.out_edges(v):
            u = g.dst[e]
            if u not in seen:
                seen.add(u)
                stack.append(u)
    assert seen == set(range(g.nv))


def test_cluster_edges_are_exactly_open_adjacent_pairs():
    w = percolate(10, 10, 0.7, 3)
    cells = set(w.coords)
    pairs = sum(
        1 for (x, y) in cells for nb in ((x + 1, y), (x, y + 1)) if nb in cells
    )
    assert w.cluster.ne == 2 * pairs
    for e in range(w.cluster.ne):
        a = w.coords[w.cluster.src[e]]
        b = w.coords[w.cluster.dst[e]]
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
        assert w.cluster.inv[w.cluster.inv[e]] == e


def test_fixture_window_regression():
    w = percolate(200, 200, 0.85, 7)
    assert w.cluster_size == 33827
    assert w.density == pytest.approx(0.845675)
    assert 0.7 <= w.density <= 1.0
    assert w.border_distance == 112
    again = percolate(200, 200, 0.85, 7)
    assert again.cluster_size == w.cluster_size
    assert (again.open_mask == w.open_mask).all()


def test_monotone_coupling_in_p():
    for seed in range(4):
        prev = None
        for p in (0.6, 0.75, 0.9):
            w = percolate(60, 60, p, seed)
            cells = set(w.coords)
            if prev is not None:
                assert prev <= cells
            prev = cells


# -- the mask stream ------------------------------------------------------------


def _numpy_uniforms(width, height, seed):
    # the oracle: numpy's own SeedSequence -> PCG64 stream, which percolate
    # reproduces without importing numpy.random
    return np.random.Generator(np.random.PCG64(seed)).random((width, height))


# word-size edges of SeedSequence's input, and the seeds the fixtures use
STREAM_SEEDS = sorted(
    {0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 99} | {seed for *_, seed in WINDOWS} | {7}
)
STREAM_SHAPES = [
    (1, 1),
    (1, 37),
    (37, 1),
    (13, 21),
    (1, _BLOCK - 1),  # one short of a block
    (_BLOCK, 1),  # exactly one block
    (_BLOCK + 1, 1),  # one cell into the second block
    (3, _BLOCK + 5),  # several blocks, the last one partial
    (400, 400),
]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("width,height", STREAM_SHAPES)
def test_mask_is_numpys_pcg64_stream(width, height, seed):
    u = _numpy_uniforms(width, height, seed)
    for p in (0.0, 1.0, 0.9):
        assert (percolate(width, height, p, seed).open_mask == (u < p)).all()
    # p equal to a drawn uniform: that cell is closed under <, open under <=
    cell = (width // 3, height // 2)
    p = float(u[cell])
    mask = percolate(width, height, p, seed).open_mask
    assert (mask == (u < p)).all() and not mask[cell] and (u <= p)[cell]


def test_seed_words_past_128_bits_are_mixed_in():
    # SeedSequence hashes words 5 and up into the pool after the first four
    base = 2**130 + 12345
    for seed in (base, base + 2**160, 2**200 - 1):
        u = _numpy_uniforms(40, 40, seed)
        assert (percolate(40, 40, 0.5, seed).open_mask == (u < 0.5)).all()
    assert (percolate(40, 40, 0.5, base).open_mask
            != percolate(40, 40, 0.5, base + 2**160).open_mask).any()


def test_numpy_integer_and_bool_seeds_draw_numpys_mask():
    for seed in (np.int64(5), np.uint64(2**64 - 1), np.uint8(3), True, False):
        u = _numpy_uniforms(30, 20, seed)
        assert (percolate(30, 20, 0.5, seed).open_mask == (u < 0.5)).all()


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(2.0), "3", np.True_])
def test_non_integer_seeds_raise_type_error_as_numpy_does(seed):
    if not isinstance(seed, str):
        with pytest.raises(TypeError):
            np.random.PCG64(seed)
    with pytest.raises(TypeError):
        percolate(5, 5, 0.5, seed)


# -- cover spheres ------------------------------------------------------------


def test_tree_ball_spheres_then_silence():
    tb = tree_ball(4, 5)
    sizes = cover_sphere_sizes(tb.graph, tb.root, 7)
    assert sizes == [1, 4, 12, 36, 108, 324, 0, 0]


def test_half_loop_rose_two_readings():
    hl = half_loop_rose(4)
    assert cover_sphere_sizes(hl, 0, 4) == [1, 0, 0, 0, 0]
    # stepping the half-loops as reduced walks is the non-backtracking count
    assert nonbacktracking_closed_counts(hl, 0, 4) == [1, 4, 12, 36, 108]


def test_complete_graph_closed_form():
    sizes = cover_sphere_sizes(complete_graph(4), 0, 10)
    assert sizes == [1] + [3 * 2 ** (n - 1) for n in range(1, 11)]


def test_counting_routes_agree_across_word_size_boundary():
    # 4*3^39 still fits uint64, 4*3^40 does not; prefixes must match exactly
    k5 = complete_graph(5)
    a = cover_sphere_sizes(k5, 0, 40)
    b = cover_sphere_sizes(k5, 0, 41)
    assert b[:41] == a
    assert a == [1] + [4 * 3 ** (n - 1) for n in range(1, 41)]
    assert b[41] == 4 * 3 ** 40


def test_sphere_dp_matches_brute_force_on_cluster():
    w = percolate(8, 8, 0.6, 1)
    reg = add_half_loops_to_regularize(w.cluster, 4)
    assert cover_sphere_sizes(reg, w.cluster_root, 8) == _brute_sphere_sizes(
        reg, w.cluster_root, 8
    )


def test_sphere_cap_in_tree():
    w = percolate(40, 40, 0.8, 5)
    reg = add_half_loops_to_regularize(w.cluster, 4)
    sizes = cover_sphere_sizes(reg, w.cluster_root, 20)
    for n, s in enumerate(sizes[1:], start=1):
        assert s <= 4 * 3 ** (n - 1)


def test_sphere_argument_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        cover_sphere_sizes(g, 4, 5)
    with pytest.raises(ValueError):
        cover_sphere_sizes(g, 0, -1)
    assert cover_sphere_sizes(g, 0, 0) == [1]


# -- growth estimate ----------------------------------------------------------


def test_geometric_sizes_estimate_three():
    ge = lower_growth_estimate([1] + [4 * 3 ** (n - 1) for n in range(1, 41)])
    assert ge.tail_start == 31
    assert 3.0 < ge.value < 3.05
    assert ge.boundary_clean


def test_constant_sizes_estimate_one():
    ge = lower_growth_estimate([1] + [2] * 40)
    assert ge.value == pytest.approx(2 ** (1 / 40))
    assert 1.0 < ge.value < 1.02


def test_dead_sphere_floors_the_estimate():
    ge = lower_growth_estimate([1, 2, 2, 0, 0], tail_fraction=1.0)
    assert ge.value == 0.0


def test_growth_argument_validation():
    with pytest.raises(ValueError):
        lower_growth_estimate([1])
    with pytest.raises(ValueError):
        lower_growth_estimate([1, 4], tail_fraction=0.0)


def test_fixture_growth_regression():
    # the tail sits at the p=0.85 effective branching rate, far below the
    # infinite-radius target 3; frozen as a regression value
    w = percolate(200, 200, 0.85, 7)
    ge = window_growth(w, 40)
    assert ge.boundary_clean
    assert ge.value == pytest.approx(2.595223736448305, abs=1e-9)
    assert 2.5 < ge.value < 3.0
    assert ge.tail_start == 31


def test_growth_monotone_in_p_on_shared_seed():
    vals = []
    for p in (0.8, 0.9):
        w = percolate(120, 120, p, 7)
        assert w.boundary_clean(20)
        vals.append(window_growth(w, 20).value)
    assert vals[0] <= vals[1] + 1e-12


def test_boundary_flag_tracks_window_size():
    w = percolate(20, 20, 0.95, 0)
    assert w.reaches_boundary
    assert w.border_distance == 9
    ge_far = window_growth(w, w.border_distance + 4)
    assert not ge_far.boundary_clean
    ge_near = window_growth(w, max(1, w.border_distance - 1))
    assert ge_near.boundary_clean
