import math

import numpy as np
import pytest

from unilp.errors import ConfigError
from unilp.graphs import Graph, LatticeSpec, SbmSpec, canonical_pair, generate_lattice, generate_sbm
import unilp.heuristics as heuristics
from unilp.heuristics import KINDS, Heuristic, score, score_batch
from unilp.rng import derive_rng

from oracles import shortest_path


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def triangle_plus():
    # triangle 0-1-2 with a pendant 3 on node 1
    return Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (1, 3)])


def random_graph(n, p, seed):
    rng = derive_rng(seed, "test-heuristic-graph")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def reference_score(h, g, pair):
    """The per-pair form: build the scoring view, then score the pair alone."""
    u, v = canonical_pair(*pair)
    view = g.without_edge(u, v)
    common = np.intersect1d(view.neighbors(u), view.neighbors(v), assume_unique=True)
    if h.kind == "cn":
        return float(len(common))
    if h.kind == "aa":
        total = 0.0
        for w in common:
            total += 1.0 / math.log(view.degree(int(w)))
        return total
    if h.kind == "ra":
        return float(sum(1.0 / view.degree(int(w)) for w in common))
    if h.kind == "pa":
        return float(view.degree(u) * view.degree(v))
    if h.kind == "sp":
        d = shortest_path(view, u, v)
        return -math.inf if math.isinf(d) else -float(d)
    rows = np.repeat(np.arange(view.n, dtype=np.int64), np.diff(view.indptr))
    x = np.zeros(view.n)
    x[u] = 1.0
    total = 0.0
    for step in range(1, h.katz_len + 1):
        x = np.bincount(view.indices, weights=x[rows], minlength=view.n)
        total += h.katz_beta**step * x[v]
    return float(total)


def reference_graphs():
    two_parts = Graph.from_edges(10, [(0, 1), (1, 2), (0, 2), (2, 3), (5, 6), (6, 7), (7, 8), (5, 8)])
    return {
        # p_in 0.9 on 24 nodes: every pair has at least 8 common neighbours
        "dense-sbm": generate_sbm(SbmSpec((24,), 0.9, 0.0), seed=3),
        "two-block-sbm": generate_sbm(SbmSpec((15, 15), 0.4, 0.05), seed=4),
        "grid-torus": generate_lattice(LatticeSpec(kind="grid", rows=6, cols=6, torus=True)),
        "triangular": generate_lattice(LatticeSpec(kind="triangular", rows=5, cols=4)),
        # isolated nodes 4 and 9, two components: SP scores of -inf
        "two-parts": two_parts,
    }


def reference_batches(g, seed):
    rng = derive_rng(seed, "test-heuristic-batch")
    edges = [tuple(e) for e in g.edge_array().tolist()]
    random_pairs = [tuple(int(x) for x in rng.choice(g.n, size=2, replace=False)) for _ in range(40)]
    linked = [edges[i] for i in rng.choice(len(edges), size=min(10, len(edges)), replace=False)]
    mixed = random_pairs + linked + [(b, a) for a, b in random_pairs[:10] + linked[:5]] + random_pairs[:5]
    # one node in many pairs (a single source for most of them) next to
    # pairs with sources of their own
    star = [(0, b) for b in range(1, g.n)] + [(b, 0) for b in range(2, 5)]
    return [mixed, star, random_pairs[:1], linked[:1], edges]


@pytest.mark.parametrize("name", sorted(reference_graphs()))
def test_score_batch_equals_reference_bitwise(name):
    g = reference_graphs()[name]
    if name == "dense-sbm":
        cn = score_batch(Heuristic("cn"), g, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)])
        assert cn.min() >= 8
    for i, pairs in enumerate(reference_batches(g, seed=len(name))):
        for kind in KINDS:
            h = Heuristic(kind, katz_beta=0.01)
            got = score_batch(h, g, pairs)
            want = np.array([reference_score(h, g, p) for p in pairs], dtype=np.float64)
            assert got.dtype == np.float64 and got.shape == (len(pairs),)
            assert got.tobytes() == want.tobytes(), (name, i, kind)
    if name == "two-parts":
        assert list(score_batch(Heuristic("sp"), g, [(0, 5), (3, 4), (0, 3)])) == [-math.inf, -math.inf, -2.0]


def hops_with_unique(g, source, targets, seen):
    """The shortest-path BFS with each frontier deduplicated by np.unique,
    the form the sort-and-mask deduplication replaced."""
    hops = np.full(len(targets), math.inf)
    frontier = np.array([source], dtype=np.int64)
    seen[source] = True
    visited = [frontier]
    level = 0
    pending = np.ones(len(targets), dtype=bool)
    while pending.any() and len(frontier):
        level += 1
        _, reached = heuristics._gather_rows(g, frontier)
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
        visited.append(frontier)
        hit = pending & seen[targets]
        hops[hit] = level
        pending &= ~hit
    seen[np.concatenate(visited)] = False
    return hops


def test_sp_scores_equal_the_unique_frontier_form_bitwise(monkeypatch):
    torus = generate_lattice(LatticeSpec(kind="triangular", rows=150, cols=150, torus=True))
    graphs = [torus] + [random_graph(80, p, seed) for seed, p in enumerate((0.02, 0.05, 0.2))]
    unreachable = 0
    for g in graphs:
        rng = derive_rng(g.n, "test-sp-frontier")
        anchors = rng.choice(g.n, size=3, replace=False).tolist()
        pairs = [(a, b) for a in anchors for b in range(g.n) if b != a]
        got = score_batch(Heuristic("sp"), g, pairs)
        with monkeypatch.context() as patch:
            patch.setattr(heuristics, "_hops", hops_with_unique)
            want = score_batch(Heuristic("sp"), g, pairs)
        assert got.tobytes() == want.tobytes(), g.n
        unreachable += int(np.isinf(got).sum())
    assert unreachable  # the sparse random graphs are disconnected


def test_empty_batch():
    for kind in KINDS:
        got = score_batch(Heuristic(kind), path3(), [])
        assert got.dtype == np.float64 and got.shape == (0,)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        Heuristic(kind="jaccard")
    with pytest.raises(ConfigError):
        Heuristic(kind="katz", katz_beta=0.0)
    with pytest.raises(ConfigError):
        Heuristic(kind="katz", katz_len=0)
    for bad in (dict(katz_beta=float("nan")), dict(katz_beta=float("inf")),
                dict(katz_beta="0.01"), dict(katz_beta=True), dict(katz_len=2.0),
                dict(katz_len="3"), dict(katz_len=None)):
        with pytest.raises(ConfigError, match="must be"):
            Heuristic(kind="katz", **bad)


def test_counting_scores_on_triangle():
    g = triangle_plus()
    # scoring (0, 2) removes that edge; the one common neighbor is node 1
    # whose degree stays 3 (edges to 0, 2, 3)
    assert score(Heuristic("cn"), g, (0, 2)) == 1.0
    assert score(Heuristic("aa"), g, (0, 2)) == pytest.approx(1.0 / math.log(3))
    assert score(Heuristic("ra"), g, (0, 2)) == pytest.approx(1.0 / 3.0)
    # view degrees after removing (0, 2): deg(0)=1, deg(2)=1
    assert score(Heuristic("pa"), g, (0, 2)) == 1.0


def test_own_edge_removed_before_scoring():
    # without removal CN(0,2) of the triangle would still be 1, but PA
    # would be 2*2; the view drops one degree from each endpoint
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert score(Heuristic("pa"), g, (0, 2)) == 1.0
    assert score(Heuristic("sp"), g, (0, 2)) == -2.0


def test_shortest_path_scores():
    g = path3()
    assert score(Heuristic("sp"), g, (0, 2)) == -2.0
    split = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert score(Heuristic("sp"), split, (0, 3)) == -math.inf
    # removing the only edge makes the endpoints unreachable
    assert score(Heuristic("sp"), split, (0, 1)) == -math.inf


def test_grid_neighbor_pairs_share_no_common_neighbors():
    g = generate_lattice(LatticeSpec(kind="grid", rows=5, cols=5, torus=True))
    for pair in [(0, 1), (0, 5), (7, 8)]:
        assert score(Heuristic("cn"), g, pair) == 0.0
        assert score(Heuristic("aa"), g, pair) == 0.0
        assert score(Heuristic("ra"), g, pair) == 0.0
    # triangular lattice neighbors do close triangles
    t = generate_lattice(LatticeSpec(kind="triangular", rows=5, cols=5, torus=True))
    assert score(Heuristic("cn"), t, (0, 1)) >= 1.0


def test_katz_on_path_matches_closed_form():
    # only walks 0->2 of length <= 5 in the 3-path: one of length 2,
    # two of length 4
    beta = 0.005
    expected = beta**2 + 2 * beta**4
    got = score(Heuristic("katz"), path3(), (0, 2))
    assert got == pytest.approx(expected, rel=1e-12)


def test_katz_matches_dense_matrix_power():
    h = Heuristic("katz", katz_beta=0.01, katz_len=5)
    for seed in range(50):
        g = random_graph(12, 0.25, seed)
        rng = derive_rng(seed, "test-heuristic-pair")
        u, v = sorted(rng.choice(12, size=2, replace=False))
        view = g.without_edge(u, v)
        a = np.zeros((12, 12))
        for x, y in view.edge_array():
            a[x, y] = a[y, x] = 1.0
        expected = sum(
            h.katz_beta**l * np.linalg.matrix_power(a, l)[u, v]
            for l in range(1, h.katz_len + 1)
        )
        assert score(h, g, (u, v)) == pytest.approx(expected, abs=1e-12)


def test_katz_nondecreasing_in_length():
    g = generate_lattice(LatticeSpec(kind="triangular", rows=5, cols=5))
    prev = 0.0
    for L in range(1, 7):
        cur = score(Heuristic("katz", katz_len=L), g, (0, 7))
        assert cur >= prev - 1e-15
        prev = cur


def test_katz_warns_when_beta_too_large():
    g = generate_lattice(LatticeSpec(kind="grid", rows=5, cols=5, torus=True))
    with pytest.warns(UserWarning, match="katz_beta"):
        score(Heuristic("katz", katz_beta=0.3), g, (0, 2))


def test_scores_are_symmetric():
    g = random_graph(10, 0.35, seed=1)
    for kind in ("cn", "aa", "ra", "pa", "sp", "katz"):
        h = Heuristic(kind)
        for u, v in [(0, 3), (2, 9), (4, 5)]:
            assert score(h, g, (u, v)) == score(h, g, (v, u)), kind


def test_score_batch_matches_singles():
    g = random_graph(10, 0.35, seed=2)
    pairs = [(0, 1), (2, 5), (3, 9), (9, 3), (0, 5)]
    for kind in KINDS:
        h = Heuristic(kind)
        batch = score_batch(h, g, pairs)
        assert batch.dtype == np.float64
        assert list(batch) == [score(h, g, p) for p in pairs], kind


def test_out_of_range_pair_rejected():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for kind in KINDS:
        for pair in [(0, 4), (-1, 2), (2, -1)]:
            with pytest.raises(ConfigError, match="out of range"):
                score(Heuristic(kind), g, pair)
        with pytest.raises(ConfigError, match="out of range"):
            score_batch(Heuristic(kind), g, [(0, 1), (-1, 3)])
        with pytest.raises(ConfigError, match="distinct"):
            score_batch(Heuristic(kind), g, [(0, 1), (2, 2)])
