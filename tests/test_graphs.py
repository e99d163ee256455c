import itertools
import json
import math

import numpy as np
import pytest

from unilp.errors import ConfigError, DataError
from unilp.graphs import (
    DataSplit,
    Graph,
    LatticeSpec,
    SbmSpec,
    canonical_pair,
    count_simple_paths,
    generate_lattice,
    generate_sbm,
    load_edge_list,
    sample_nonedges,
    save_edge_list,
    split_edges,
)
from unilp.rng import derive_rng

from oracles import (
    UNREACHABLE,
    reference_count_simple_paths,
    reference_from_edges,
    reference_lattice,
    shortest_path,
)


def lattice(kind, rows, cols, torus=False):
    return generate_lattice(LatticeSpec(kind=kind, rows=rows, cols=cols, torus=torus))


def random_graph(n, p, seed):
    rng = derive_rng(seed, "test-random-graph")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# core structure


def test_canonical_pair_orders_and_rejects_loops():
    assert canonical_pair(5, 2) == (2, 5)
    assert canonical_pair(2, 5) == (2, 5)
    with pytest.raises(ConfigError):
        canonical_pair(3, 3)


def test_from_edges_basics():
    g = Graph.from_edges(4, [(2, 1), (0, 1), (1, 2)])  # duplicate collapses
    assert g.n == 4
    assert g.edge_count == 2
    assert g.degree(1) == 2
    assert g.degree(3) == 0
    assert list(g.neighbors(1)) == [0, 2]
    assert g.has_edge(1, 0) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2) and not g.has_edge(0, 3)


def test_neighbors_are_sorted():
    for seed in range(10):
        g = random_graph(12, 0.4, seed)
        for u in range(g.n):
            row = list(g.neighbors(u))
            assert row == sorted(row)


def test_neighbor_lists_equal_the_csr_rows_and_are_built_once():
    graphs = [random_graph(12, 0.4, seed) for seed in range(3)]
    graphs += [Graph.from_edges(5, [(1, 3)]), Graph.from_edges(0, [])]
    for g in graphs:
        rows = g.neighbor_lists()
        assert rows == tuple(tuple(g.neighbors(x).tolist()) for x in range(g.n))
        assert all(type(w) is int for row in rows for w in row)
        assert g.neighbor_lists() is rows
    assert Graph.from_edges(5, [(1, 3)]).neighbor_lists() == ((), (3,), (), (1,), ())


def test_from_edges_rejects_out_of_range():
    with pytest.raises(DataError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(DataError):
        Graph.from_edges(3, [(-1, 2)])
    # the bad endpoint need not sit in the lexicographically last pair
    with pytest.raises(DataError):
        Graph.from_edges(50, [(0, 99), (1, 2)])
    with pytest.raises(DataError):
        Graph.from_edges(50, [(1, 2), (0, 2**64)])


def assert_same_csr(g, ref):
    assert g.indptr.dtype == ref.indptr.dtype and g.indices.dtype == ref.indices.dtype
    assert np.array_equal(g.indptr, ref.indptr)
    assert np.array_equal(g.indices, ref.indices)


def test_from_edges_matches_the_reference_on_pair_lists():
    rng = derive_rng(0, "test-from-edges")
    for trial in range(60):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, 3 * n))
        u, v = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        # repeats, both orders, and nodes no pair touches (n exceeds the ids)
        pairs = [(int(a), int(b)) for a, b in zip(u, v) if a != b]
        pairs += [(b, a) for a, b in pairs[: m // 3]]
        ref = reference_from_edges(n + 3, pairs)
        as_array = np.array(pairs, dtype=np.int32).reshape(-1, 2)
        for edges in (pairs, set(pairs), iter(pairs), (p for p in pairs), as_array,
                      [(np.int64(a), np.int64(b)) for a, b in pairs]):
            assert_same_csr(Graph.from_edges(n + 3, edges), ref)
    for n in (0, 4):
        for edges in ([], (), set(), np.zeros((0, 2), dtype=np.int64)):
            assert_same_csr(Graph.from_edges(n, edges), reference_from_edges(n, []))
    for seed in range(20):
        g = generate_sbm(SbmSpec(block_sizes=(12, 9, 7), p_in=0.4, p_out=0.05), seed=seed)
        assert_same_csr(g, reference_from_edges(g.n, g.edge_array().tolist()))


def test_lattices_match_the_reference_builder():
    for kind, rows, cols, torus in itertools.product(
            ("grid", "triangular"), range(3, 9), range(3, 9), (False, True)):
        spec = LatticeSpec(kind=kind, rows=rows, cols=cols, torus=torus)
        assert_same_csr(generate_lattice(spec), reference_lattice(spec))


@pytest.mark.parametrize("edges", [
    [(0, 1, 2)],                          # a triple
    [(0, 1), (2,)],                       # ragged rows
    [("a", "b")],                         # non-numeric ids
    np.array([[0, 1, 2], [3, 4, 0]]),     # (2, 3): not three pairs
    np.array([0, 1, 2, 3]),               # flat, not pairs
    [(1, 1)],                             # a self-pair
])
def test_from_edges_rejects_malformed_pairs(edges):
    with pytest.raises(ConfigError):
        Graph.from_edges(5, edges)


def test_edge_array_is_sorted_and_frozen():
    g = Graph.from_edges(5, [(3, 4), (0, 2), (0, 1)])
    arr = g.edge_array()
    assert arr.tolist() == [[0, 1], [0, 2], [3, 4]]
    assert g.edge_codes().tolist() == [0, 1, 9]  # of the 10 pairs, (3, 4) is last
    with pytest.raises(ValueError):
        arr[0, 0] = 9


def test_without_edge_removes_only_that_edge():
    g = lattice("grid", 3, 3)
    view = g.without_edge(0, 1)
    assert not view.has_edge(0, 1)
    assert view.edge_count == g.edge_count - 1
    assert g.has_edge(0, 1)  # original untouched
    # every other edge survives
    assert view.edge_set() == g.edge_set() - {(0, 1)}
    # absent edge: same object back
    assert g.without_edge(0, 4) is g


# ---------------------------------------------------------------------------
# generators


def test_lattice_edge_counts():
    # r x c grid: r(c-1) + c(r-1) edges; triangular adds (r-1)(c-1) diagonals
    assert lattice("grid", 3, 3).edge_count == 12
    assert lattice("triangular", 3, 3).edge_count == 16
    assert lattice("grid", 3, 3, torus=True).edge_count == 18
    assert lattice("triangular", 3, 3, torus=True).edge_count == 27
    assert lattice("grid", 4, 5, torus=True).edge_count == 40
    assert lattice("grid", 4, 5).n == 20


def test_large_triangular_torus_and_its_split():
    g = lattice("triangular", 300, 300, torus=True)
    assert (g.n, g.edge_count) == (90_000, 270_000)
    assert np.all(np.diff(g.indptr) == 6)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=0)
    sizes = len(split.observed), len(split.valid_pos), len(split.test_pos)
    assert sizes == (189_000, 27_000, 54_000)
    assert list(split.observed) == sorted(split.observed)


def test_large_split_round_trips_through_its_json_document():
    split = split_edges(lattice("triangular", 300, 300, torus=True), (0.7, 0.1, 0.2), seed=0)
    again = DataSplit.from_json_dict(json.loads(json.dumps(split.to_json_dict())))
    assert again == split
    assert type(again.observed) is tuple and type(again.observed[0]) is tuple
    assert all(type(x) is int for x in again.test_neg[0] + again.id_map[:3])


def test_grid_is_degree_4_on_torus():
    g = lattice("grid", 5, 6, torus=True)
    assert all(g.degree(u) == 4 for u in range(g.n))
    t = lattice("triangular", 5, 6, torus=True)
    assert all(t.degree(u) == 6 for u in range(t.n))


def test_lattice_rejects_tiny_and_unknown():
    with pytest.raises(ConfigError):
        LatticeSpec(kind="grid", rows=2, cols=5)
    with pytest.raises(ConfigError):
        LatticeSpec(kind="hex", rows=5, cols=5)


def test_sbm_extremes():
    # p_in=1, p_out=0: disjoint cliques
    g = generate_sbm(SbmSpec(block_sizes=(4, 3), p_in=1.0, p_out=0.0), seed=0)
    assert g.edge_count == 6 + 3
    assert not g.has_edge(0, 4)
    # p_in=0, p_out=1: complete bipartite
    g = generate_sbm(SbmSpec(block_sizes=(4, 3), p_in=0.0, p_out=1.0), seed=0)
    assert g.edge_count == 12


def test_sbm_edge_count_near_expectation():
    # blocks (50, 50), p_in 0.3, p_out 0.01:
    # mean = 2*C(50,2)*0.3 + 2500*0.01 = 735 + 25 = 760, sd ~ 23.2
    g = generate_sbm(SbmSpec(block_sizes=(50, 50), p_in=0.3, p_out=0.01), seed=11)
    assert abs(g.edge_count - 760) < 95  # ~4 sd


def test_sbm_deterministic_per_seed():
    spec = SbmSpec(block_sizes=(20, 20), p_in=0.2, p_out=0.05)
    a = generate_sbm(spec, seed=3)
    b = generate_sbm(spec, seed=3)
    c = generate_sbm(spec, seed=4)
    assert np.array_equal(a.edge_array(), b.edge_array())
    assert not np.array_equal(a.edge_array(), c.edge_array())


# ---------------------------------------------------------------------------
# traversal


def test_bfs_and_shortest_path():
    g = lattice("grid", 3, 3)  # nodes r*3+c
    assert shortest_path(g, 0, 8) == 4
    two_parts = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert shortest_path(two_parts, 0, 3) is UNREACHABLE


def brute_simple_paths(g, u, v, k):
    count = 0
    inner = [x for x in range(g.n) if x != u and x != v]
    for mids in itertools.permutations(inner, k - 1):
        seq = (u,) + mids + (v,)
        if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
            count += 1
    return count


def test_count_simple_paths_small_cases():
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert count_simple_paths(tri, 0, 1, 1) == 1
    assert count_simple_paths(tri, 0, 1, 2) == 1
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert count_simple_paths(c4, 0, 2, 2) == 2
    assert count_simple_paths(c4, 0, 2, 3) == 0
    k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert count_simple_paths(k4, 0, 1, 2) == 2
    assert count_simple_paths(k4, 0, 1, 3) == 2


def test_count_simple_paths_matches_brute_force():
    linked = 0
    for seed in range(30):
        g = random_graph(7, 0.4, seed)
        rng = derive_rng(seed, "test-pick")
        pairs = [canonical_pair(*rng.choice(7, size=2, replace=False))]
        edges = g.edge_array().tolist()
        if edges:
            pairs.append(tuple(edges[rng.integers(len(edges))]))  # a linked pair
        for u, v in pairs:
            linked += g.has_edge(u, v)
            for k in range(1, 7):
                count = count_simple_paths(g, u, v, k)
                assert count == brute_simple_paths(g, u, v, k), (seed, u, v, k)
                if k >= 2:
                    # a simple path of 2 or more edges never uses the u-v edge
                    assert count == count_simple_paths(g.without_edge(u, v), u, v, k), (seed, u, v, k)
    assert linked >= 30


def test_count_simple_paths_matches_the_reference_dfs():
    graphs = [random_graph(8, 0.35, seed) for seed in range(3)]
    # nodes 8 and 9 stay isolated
    graphs += [Graph.from_edges(10, random_graph(8, 0.5, seed).edge_array().tolist()) for seed in (3, 4)]
    graphs += [lattice(kind, 4, 5, torus) for kind in ("grid", "triangular") for torus in (False, True)]
    graphs.append(generate_sbm(SbmSpec(block_sizes=(6, 6), p_in=0.5, p_out=0.1), seed=2))
    # views without one edge, as the heuristics score linked pairs
    graphs += [g.without_edge(*g.edge_array()[len(g.edge_array()) // 2]) for g in graphs[::3]]
    linked = unlinked = 0
    for g in graphs:
        for u in (0, g.n // 2):
            for v in range(g.n):
                if v == u:
                    continue
                linked += g.has_edge(u, v)
                unlinked += not g.has_edge(u, v)
                for k in range(1, 7):
                    want = reference_count_simple_paths(g, u, v, k)
                    assert count_simple_paths(g, u, v, k) == want, (g, u, v, k)
    assert linked >= 50 and unlinked >= 50


def test_count_simple_paths_guards_length():
    g = lattice("grid", 3, 3)
    with pytest.raises(ConfigError):
        count_simple_paths(g, 0, 1, 0)
    with pytest.raises(ConfigError):
        count_simple_paths(g, 0, 1, 7)


def test_count_simple_paths_rejects_out_of_range_endpoints():
    torus = lattice("grid", 4, 4, torus=True)
    for u, v in ((-1, 1), (1, -1), (0, 16), (16, 0), (-1, 16)):
        with pytest.raises(ConfigError, match="out of range"):
            count_simple_paths(torus, u, v, 2)


# ---------------------------------------------------------------------------
# edge-list files


def test_edge_list_round_trip(tmp_path):
    g = lattice("triangular", 3, 4)
    path = tmp_path / "g.txt"
    save_edge_list(path, g, header="triangular 3x4")
    g2 = load_edge_list(path)
    assert g2.edge_set() == g.edge_set()
    assert path.read_text().startswith("#")


def test_load_edge_list_parses_comments_dupes_and_loops(tmp_path, caplog):
    path = tmp_path / "g.txt"
    path.write_text(
        "# header comment\n"
        "0 1\n"
        "1 0\n"          # duplicate in reverse
        "2 2\n"          # self loop: dropped
        "1 2  # trailing note\n"
        "\n"
        "3 4\n"
    )
    g = load_edge_list(path)
    assert g.edge_set() == {(0, 1), (1, 2), (3, 4)}


def test_load_edge_list_remaps_sparse_ids(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("10 400\n400 7\n")
    g = load_edge_list(path)
    assert g.n == 3
    assert list(g.source_ids) == [7, 10, 400]
    assert g.edge_set() == {(1, 2), (0, 2)}


def test_edge_list_round_trip_keeps_huge_ids(tmp_path):
    rng = derive_rng(0, "test-huge-ids")
    for trial in range(10):
        ids = rng.integers(0, 10**12, size=(int(rng.integers(1, 60)), 2))
        path = tmp_path / f"g{trial}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in ids.tolist()))
        g = load_edge_list(path)
        kept = {(min(u, v), max(u, v)) for u, v in ids.tolist() if u != v}
        assert g.source_ids.tolist() == sorted({x for e in kept for x in e})
        assert {tuple(g.source_ids[e].tolist()) for e in g.edge_array()} == kept
        save_edge_list(tmp_path / "once.txt", g)
        again = load_edge_list(tmp_path / "once.txt")
        assert np.array_equal(again.source_ids, g.source_ids)
        assert_same_csr(again, g)
        save_edge_list(tmp_path / "twice.txt", again)
        assert (tmp_path / "twice.txt").read_bytes() == (tmp_path / "once.txt").read_bytes()


def test_load_edge_list_rejects_ids_beyond_int64(tmp_path):
    path = tmp_path / "huge.txt"
    for line in ("1 99999999999999999999", f"{2**63} 1"):
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(DataError, match="line 2"):
            load_edge_list(path)
    path.write_text(f"0 {2**63 - 1}\n")
    assert load_edge_list(path).source_ids.tolist() == [0, 2**63 - 1]


def test_load_edge_list_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nnot numbers\n")
    with pytest.raises(DataError) as err:
        load_edge_list(path)
    assert "line 2" in str(err.value)
    path.write_text("0 1 2\n")
    with pytest.raises(DataError):
        load_edge_list(path)
    path.write_text("# only comments\n")
    with pytest.raises(DataError):
        load_edge_list(path)


# ---------------------------------------------------------------------------
# negative sampling


def test_sample_nonedges_avoids_edges_and_exclusions():
    g = lattice("grid", 4, 4)
    exclude = {(0, 5), (0, 10)}
    got = sample_nonedges(g, 30, seed=2, exclude=exclude)
    assert len(got) == len(set(got)) == 30
    for u, v in got:
        assert u < v
        assert not g.has_edge(u, v)
        assert (u, v) not in exclude


def test_sample_nonedges_deterministic():
    g = lattice("grid", 4, 4)
    assert sample_nonedges(g, 10, seed=5) == sample_nonedges(g, 10, seed=5)
    assert sample_nonedges(g, 10, seed=5) != sample_nonedges(g, 10, seed=6)


def test_sample_nonedges_exhausts_capacity_exactly():
    tri = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    # 6 pairs - 3 edges = 3 non-edges
    got = sample_nonedges(tri, 3, seed=0)
    assert sorted(got) == [(0, 3), (1, 3), (2, 3)]
    with pytest.raises(DataError):
        sample_nonedges(tri, 4, seed=0)


def reference_nonedge_pool(g, exclude=()):
    """Every pair u < v, in lexicographic order, that is neither an edge of g
    nor excluded."""
    forbidden = g.edge_set() | {canonical_pair(u, v) for u, v in exclude}
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in forbidden]


def reference_sample_nonedges(g, count, seed, exclude=()):
    """The list-comprehension pool, rebuilt on every call: the definition the
    cached forbidden indices must reproduce draw for draw."""
    pool = reference_nonedge_pool(g, exclude)
    if count > len(pool):
        raise DataError("over capacity")
    picks = derive_rng(seed, "nonedges", count).choice(len(pool), size=count, replace=False)
    return [pool[i] for i in picks]


def test_sample_nonedges_matches_reference_pool_cold_and_warm():
    graphs = [
        lambda: lattice("grid", 5, 5, torus=True),
        lambda: lattice("triangular", 4, 6),
        lambda: random_graph(23, 0.2, seed=4),
    ]
    for make in graphs:
        g = make()
        edges = [tuple(e) for e in g.edge_array().tolist()]
        nonedges = reference_sample_nonedges(g, 12, seed=99)
        excludes = [(), frozenset(edges[:7] + nonedges[:5]), [list(p[::-1]) for p in nonedges[5:9]]]
        queries = [None, edges[3], nonedges[0], nonedges[10][::-1]]
        for exclude in excludes:
            for query in queries:
                avoid = set(map(tuple, exclude)) | ({query} if query else set())
                for seed in range(3):
                    for count in (1, 9):
                        want = reference_sample_nonedges(g, count, seed, avoid)
                        cold = sample_nonedges(make(), count, seed, exclude=exclude, query=query)
                        warm = sample_nonedges(g, count, seed, exclude=exclude, query=query)
                        assert cold == warm == want, (exclude, query, seed, count)
        assert len(g._nonedge_pools) <= 4


def test_sample_nonedges_large_graphs_match_reference_pool_cold_and_warm():
    # 30x30 torus: 404,550 pairs, a pool too large to list on every call
    make = lambda: lattice("grid", 30, 30, torus=True)
    g = make()
    edges = [tuple(e) for e in g.edge_array().tolist()]
    nonedges = reference_sample_nonedges(g, 40, seed=7)
    excludes = [(), frozenset(edges[:9] + nonedges[:20]), [list(p[::-1]) for p in nonedges[20:30]]]
    queries = [None, edges[5], nonedges[35], nonedges[36][::-1], nonedges[25]]
    for exclude in excludes:
        for query in queries:
            avoid = set(map(tuple, exclude)) | ({canonical_pair(*query)} if query else set())
            pool = reference_nonedge_pool(g, avoid)  # one reference pool per avoid set
            for seed in range(3):
                for count in (1, 9, 60):
                    picks = derive_rng(seed, "nonedges", count).choice(len(pool), size=count, replace=False)
                    want = [pool[i] for i in picks]
                    cold = sample_nonedges(make(), count, seed, exclude=exclude, query=query)
                    warm = sample_nonedges(g, count, seed, exclude=exclude, query=query)
                    assert cold == warm == want, (exclude, query, seed, count)
    assert len(g._nonedge_pools) <= 4
    # the forbidden indices are built once per exclude set, not once per call
    cached = g._nonedge_pools[frozenset()]
    sample_nonedges(g, 5, seed=1, query=nonedges[0])
    assert g._nonedge_pools[frozenset()] is cached
    # a near-complete graph: its few non-edges are all found
    missing = [(0, 699), (3, 4), (100, 350), (350, 351), (698, 699)]
    complete = itertools.combinations(range(700), 2)
    g = Graph.from_edges(700, set(complete) - set(missing))
    assert sorted(sample_nonedges(g, 5, seed=0)) == missing
    assert sorted(sample_nonedges(g, 4, seed=0, query=(4, 3))) == [p for p in missing if p != (3, 4)]
    with pytest.raises(DataError):
        sample_nonedges(g, 6, seed=0)


def test_sample_nonedges_capacity_counts_the_query():
    tri = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert sorted(sample_nonedges(tri, 2, seed=0, query=(3, 1))) == [(0, 3), (2, 3)]
    with pytest.raises(DataError):
        sample_nonedges(tri, 3, seed=0, query=(1, 3))
    # an edge or an excluded pair as the query costs no capacity
    assert len(sample_nonedges(tri, 3, seed=0, query=(0, 1))) == 3
    assert len(sample_nonedges(tri, 2, seed=0, exclude={(0, 3)}, query=(0, 3))) == 2
    with pytest.raises(ConfigError):
        sample_nonedges(tri, 1, seed=0, query=(0, 4))
    # an exclude pair off the graph is rejected, not counted against capacity
    with pytest.raises(ConfigError):
        sample_nonedges(tri, 3, seed=0, exclude={(0, 9)})


# ---------------------------------------------------------------------------
# splits


def test_split_sizes_use_floor():
    g = generate_sbm(SbmSpec(block_sizes=(30, 30), p_in=0.25, p_out=0.02), seed=1)
    m = g.edge_count
    split = split_edges(g, (0.7, 0.1, 0.2), seed=0)
    assert len(split.valid_pos) == math.floor(m * 0.1)
    assert len(split.test_pos) == math.floor(m * 0.2)
    assert len(split.observed) == m - len(split.valid_pos) - len(split.test_pos)


def test_split_partitions_edges_disjointly():
    g = lattice("triangular", 6, 6, torus=True)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=4)
    parts = [set(split.observed), set(split.valid_pos), set(split.test_pos)]
    assert parts[0] | parts[1] | parts[2] == g.edge_set()
    assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) and not (parts[1] & parts[2])


def test_split_negatives_are_nonedges_and_disjoint():
    g = lattice("grid", 6, 6)
    split = split_edges(g, (0.6, 0.2, 0.2), seed=9)
    assert len(split.valid_neg) == len(split.valid_pos)
    assert len(split.test_neg) == len(split.test_pos)
    full = g.edge_set()
    for pair in split.valid_neg + split.test_neg:
        assert pair not in full
    assert not (set(split.valid_neg) & set(split.test_neg))


def test_split_validation():
    g = lattice("grid", 6, 6)
    with pytest.raises(ConfigError):
        split_edges(g, (0.5, 0.2), seed=0)
    with pytest.raises(ConfigError):
        split_edges(g, (0.5, 0.3, 0.3), seed=0)
    with pytest.raises(ConfigError):
        split_edges(g, (1.0, 0.0, 0.0), seed=0)
    tiny = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(DataError):
        split_edges(tiny, (0.7, 0.1, 0.2), seed=0)


def test_split_deterministic_per_seed():
    g = lattice("grid", 6, 6)
    a = split_edges(g, (0.7, 0.1, 0.2), seed=3)
    b = split_edges(g, (0.7, 0.1, 0.2), seed=3)
    c = split_edges(g, (0.7, 0.1, 0.2), seed=4)
    assert a == b
    assert a != c


def test_datasplit_json_round_trip(tmp_path):
    g = lattice("triangular", 5, 5)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=8)
    path = tmp_path / "split.json"
    split.save(path)
    again = DataSplit.load(path)
    assert again == split
    assert again.observed_graph().edge_set() == split.observed_graph().edge_set()


def test_datasplit_rejects_malformed_documents():
    with pytest.raises(DataError):
        DataSplit.from_json_dict({"seed": 0})
    with pytest.raises(DataError):
        DataSplit.from_json_dict({
            "seed": "x", "id_map": [0, 1], "observed": [], "valid_pos": [],
            "valid_neg": [], "test_pos": [], "test_neg": [],
        })
    good = {"seed": 0, "id_map": list(range(8)), "observed": [[1, 0], [2, 1]], "valid_pos": [],
            "valid_neg": [], "test_pos": [[3, 4]], "test_neg": [[7, 2]]}
    assert DataSplit.from_json_dict(good).observed == ((0, 1), (1, 2))
    # each message names the field and the first bad pair, canonical
    for change, message in (
        ({"test_pos": [[3, 4], [9, 0], [8, 1]]}, "test_pos pair (0, 9) out of range for 8 nodes"),
        ({"valid_neg": [[5, -1]]}, "valid_neg pair (-1, 5) out of range for 8 nodes"),
        ({"test_neg": [[1, 2], [3, 3]]},
         "malformed split document: node pair must have two distinct endpoints, got (3, 3)"),
        ({"observed": [[0, 1, 2]]}, "malformed split document: observed must hold (u, v) pairs"),
        ({"observed": [[[0, 1]]]}, "malformed split document: observed must hold (u, v) pairs"),
        ({"test_pos": [[0, "a"]]}, "malformed split document"),
        ({"test_pos": [[0, 2**70]]}, "malformed split document"),
        ({"observed": None}, "malformed split document"),
    ):
        with pytest.raises(DataError) as caught:
            DataSplit.from_json_dict({**good, **change})
        assert str(caught.value).startswith(message), str(caught.value)


def test_observed_graph_keeps_isolated_nodes():
    g = Graph.from_edges(30, [(i, i + 1) for i in range(0, 24, 2)])
    split = split_edges(g, (0.8, 0.1, 0.1), seed=0)
    assert split.observed_graph().n == 30
