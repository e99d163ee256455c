import hashlib
import math

import numpy as np
import pytest

from unilp.errors import ConfigError
from unilp.graphs import Graph, LatticeSpec, SbmSpec, generate_lattice, generate_sbm, split_edges
from unilp.labeling import LabelVocab, drnl, drnl_plus, labeled_subgraph
from unilp.rng import derive_rng

from oracles import reference_labeled_subgraph


def random_graph(n, p, seed):
    rng = derive_rng(seed, "test-labeling-graph")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# double-radius values


def test_drnl_known_values():
    assert drnl(1, 1) == 2
    assert drnl(1, 2) == 3
    assert drnl(2, 1) == 3
    assert drnl(1, 3) == 4
    assert drnl(2, 2) == 5
    assert drnl(1, 4) == 6
    assert drnl(2, 3) == 7
    assert drnl(3, 3) == 10


def test_drnl_symmetric_and_injective_on_orbits():
    seen = {}
    for du in range(1, 13):
        for dv in range(du, 13):
            code = drnl(du, dv)
            assert code == drnl(dv, du)
            assert code not in seen or seen[code] == (du, dv), (du, dv, seen[code])
            seen[code] = (du, dv)


def test_drnl_rejects_negative():
    with pytest.raises(ConfigError):
        drnl(-1, 2)


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_indices_and_size():
    vocab = LabelVocab(drnl_cap=100, dist_cap=20)
    assert vocab.size == 122
    assert vocab.index((1, 0)) == 1
    assert vocab.index((99, 0)) == 99
    assert vocab.index((500, 0)) == 100          # saturates
    assert vocab.index((0, 0)) == 101            # one-sided at distance 0
    assert vocab.index((0, 3)) == 104
    assert vocab.index((0, 25)) == 121           # saturates


def test_vocab_rejects_malformed_labels():
    vocab = LabelVocab(drnl_cap=5, dist_cap=3)
    assert vocab.size == 10
    with pytest.raises(ConfigError):
        vocab.index((2, 3))
    with pytest.raises(ConfigError):
        vocab.index((-1, 0))
    with pytest.raises(ConfigError):
        LabelVocab(drnl_cap=0, dist_cap=3)


# ---------------------------------------------------------------------------
# extraction


def test_extract_path_pair_with_target_removed():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    sub = labeled_subgraph(g, (1, 2), radius=1)
    assert sub.nodes == (1, 2, 0, 3)
    assert sub.adj == ((2,), (3,), (0,), (1,))
    # the cut splits the subgraph: each outer node reaches one target only
    assert sub.labels == drnl_plus(sub) == ((1, 0), (1, 0), (0, 1), (0, 1))


def test_extract_path_pair_keeping_target():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    sub = labeled_subgraph(g, (1, 2), radius=1, remove_target=False)
    assert sub.nodes == (1, 2, 0, 3)
    assert sub.adj[0] == (1, 2) and sub.adj[1] == (0, 3)
    assert sub.labels == drnl_plus(sub) == ((1, 0), (1, 0), (3, 0), (3, 0))


def test_extract_cycle_pair():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    sub = labeled_subgraph(g, (0, 1), radius=1)
    assert sub.nodes == (0, 1, 2, 3)
    assert sub.labels == ((1, 0), (1, 0), (3, 0), (3, 0))


def test_extract_orders_nodes_canonically():
    g = generate_lattice(LatticeSpec(kind="grid", rows=4, cols=4))
    sub = labeled_subgraph(g, (9, 5), radius=1)
    assert sub.nodes[0] == 5 and sub.nodes[1] == 9
    assert list(sub.nodes[2:]) == sorted(sub.nodes[2:])
    # membership: within radius 1 of either endpoint on the cut view
    view = g.without_edge(5, 9)
    expect = {5, 9} | set(map(int, view.neighbors(5))) | set(map(int, view.neighbors(9)))
    assert set(sub.nodes) == expect


def test_extract_nonedge_pair_is_unaffected_by_removal_flag():
    g = generate_lattice(LatticeSpec(kind="grid", rows=4, cols=4))
    a = labeled_subgraph(g, (0, 10), radius=2, remove_target=True)
    b = labeled_subgraph(g, (0, 10), radius=2, remove_target=False)
    assert a == b


def test_extract_validates_arguments():
    g = generate_lattice(LatticeSpec(kind="grid", rows=4, cols=4))
    with pytest.raises(ConfigError):
        labeled_subgraph(g, (0, 99), radius=1)
    with pytest.raises(ConfigError):
        labeled_subgraph(g, (0, 1), radius=0)


def test_extract_rejects_negative_node_ids():
    # node rows are a tuple, so -1 would otherwise read node n-1's row
    g = generate_lattice(LatticeSpec(kind="grid", rows=4, cols=4, torus=True))
    for pair in ((-1, 5), (5, -1), (-2, -1), (-1, 15)):
        with pytest.raises(ConfigError, match="out of range"):
            labeled_subgraph(g, pair, radius=1)


def test_extraction_matches_the_reference_extractor():
    """Every field equals the reference's (the plain extractor over
    `Graph.neighbors` arrays) over radii 1-3, hop caps, both masking
    modes, edges, non-edges and isolated endpoints."""
    torus = generate_lattice(LatticeSpec(kind="triangular", rows=6, cols=6, torus=True))
    sbm = generate_sbm(SbmSpec((8, 6), 0.5, 0.1), seed=2)
    graphs = {
        "grid": generate_lattice(LatticeSpec(kind="grid", rows=5, cols=5, torus=True)),
        "triangular": torus,
        # two extra nodes without edges
        "sbm": Graph.from_edges(sbm.n + 2, map(tuple, sbm.edge_array().tolist())),
        "observed": split_edges(torus, (0.7, 0.1, 0.2), seed=3).observed_graph(),
    }
    rng = derive_rng(0, "test-labeling-reference")
    checked = {"edge": 0, "non-edge": 0, "isolated": 0}
    for name, g in graphs.items():
        edges = [tuple(e) for e in g.edge_array().tolist()]
        others = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        picks = rng.choice(len(others), size=len(edges), replace=False)
        alone = [p for p in others if min(g.degree(p[0]), g.degree(p[1])) == 0]
        for pair in edges + [others[i] for i in picks] + alone[:8]:
            kind = ("isolated" if min(g.degree(pair[0]), g.degree(pair[1])) == 0
                    else "edge" if g.has_edge(*pair) else "non-edge")
            checked[kind] += 1
            for radius in (1, 2, 3):
                for cap in (None, 1, 2, 3):
                    for remove in (True, False):
                        got = labeled_subgraph(g, pair, radius, remove, cap)
                        want = reference_labeled_subgraph(g, pair, radius, remove, cap)
                        assert got == want, (name, pair, radius, cap, remove)
    assert min(checked.values()) > 0, checked


def test_masked_extraction_matches_the_without_edge_view():
    graphs = [
        generate_sbm(SbmSpec(block_sizes=(8, 6), p_in=0.5, p_out=0.1), seed=2),
        generate_lattice(LatticeSpec(kind="triangular", rows=6, cols=6, torus=True)),
    ]
    for g in graphs:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                for radius in (1, 2):
                    for cap in (None, 2):
                        got = labeled_subgraph(g, (u, v), radius, max_per_hop=cap)
                        want = labeled_subgraph(g.without_edge(u, v), (u, v), radius,
                                                remove_target=False, max_per_hop=cap)
                        assert got == want, (u, v, radius, cap)


#: SHA-256 over repr((nodes, adj, labels)) of every subgraph below; a change
#: means some pair's node order, adjacency or labels moved.
PINNED_SUBGRAPH_DIGEST = "5870eef773fccb85c8dccd782f0836b4869a0a55ae07b66be36982cc1e8d48ea"


def test_subgraphs_match_pinned_digest():
    graphs = [
        generate_lattice(LatticeSpec(kind="triangular", rows=6, cols=6, torus=True)),
        generate_sbm(SbmSpec((8, 6), 0.5, 0.1), seed=2),
    ]
    digest = hashlib.sha256()
    for g in graphs:
        for radius in (1, 2):
            for cap in (None, 2):
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        sub = labeled_subgraph(g, (u, v), radius, max_per_hop=cap)
                        digest.update(repr((sub.nodes, sub.adj, sub.labels)).encode())
    assert digest.hexdigest() == PINNED_SUBGRAPH_DIGEST


def test_vocab_indices_match_index_and_reject_malformed_labels():
    vocab = LabelVocab(drnl_cap=3, dist_cap=2)
    labels = [(1, 0), (3, 0), (7, 0), (0, 0), (0, 2), (0, 9)]
    a, b = (np.array(slot) for slot in zip(*labels))
    assert vocab.indices(a, b).tolist() == [vocab.index(t) for t in labels]
    with pytest.raises(ConfigError, match=r"\(2, 1\)"):
        vocab.indices(np.array([1, 2]), np.array([0, 1]))


def test_local_edges_are_consistent_with_adj():
    g = random_graph(14, 0.3, seed=5)
    sub = labeled_subgraph(g, (0, 1), radius=2)
    for i, j in sub.local_edges():
        assert i in sub.adj[j] and j in sub.adj[i]
    # induced: every original edge between members appears
    members = set(sub.nodes)
    view = g.without_edge(0, 1)
    induced = {
        (min(a, b), max(a, b))
        for a, b in view.edge_array().tolist()
        if a in members and b in members
    }
    local_as_orig = {
        tuple(sorted((sub.nodes[i], sub.nodes[j]))) for i, j in sub.local_edges()
    }
    assert local_as_orig == induced


# ---------------------------------------------------------------------------
# labels on extracted subgraphs


def floyd_warshall(sub):
    n = sub.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        for j in sub.adj[i]:
            d[i, j] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def test_labels_match_dense_distance_oracle():
    for seed in range(25):
        g = random_graph(16, 0.18, seed)
        rng = derive_rng(seed, "test-labeling-pair")
        u, v = sorted(rng.choice(16, size=2, replace=False))
        sub = labeled_subgraph(g, (u, v), radius=2)
        d = floyd_warshall(sub)
        for i in range(sub.n):
            if i < 2:
                assert sub.labels[i] == (1, 0)
                continue
            du, dv = d[0, i], d[1, i]
            if np.isfinite(du) and np.isfinite(dv):
                assert sub.labels[i] == (drnl(int(du), int(dv)), 0), (seed, i)
            elif np.isfinite(du):
                assert sub.labels[i] == (0, int(du))
            else:
                assert np.isfinite(dv)  # never unreachable from both
                assert sub.labels[i] == (0, int(dv))


def test_labels_invariant_under_node_relabeling():
    g = random_graph(15, 0.25, seed=3)
    perm = derive_rng(0, "test-perm").permutation(15)
    mapped_edges = [(int(perm[a]), int(perm[b])) for a, b in g.edge_array().tolist()]
    h = Graph.from_edges(15, mapped_edges)
    for u, v in [(0, 1), (2, 9), (4, 13)]:
        a = labeled_subgraph(g, (u, v), radius=2)
        b = labeled_subgraph(h, (int(perm[u]), int(perm[v])), radius=2)
        assert sorted(a.labels) == sorted(b.labels)


def test_hop_cap_limits_and_is_deterministic():
    # star: node 0 joined to 30 leaves, plus the pair edge (0, 1)
    g = Graph.from_edges(31, [(0, i) for i in range(1, 31)])
    full = labeled_subgraph(g, (0, 1), radius=1)
    assert full.n == 31
    capped = labeled_subgraph(g, (0, 1), radius=1, max_per_hop=5)
    assert capped.n == 7  # both targets + 5 sampled leaves
    again = labeled_subgraph(g, (0, 1), radius=1, max_per_hop=5)
    assert capped == again


def test_hop_cap_keeps_labels_defined():
    # every retained node must still get a label (reachability invariant)
    for seed in range(10):
        g = random_graph(40, 0.12, seed)
        sub = labeled_subgraph(g, (0, 1), radius=3, max_per_hop=4)
        assert len(sub.labels) == sub.n


def test_targets_always_first_and_pinned():
    g = generate_lattice(LatticeSpec(kind="triangular", rows=5, cols=5))
    sub = labeled_subgraph(g, (12, 3), radius=2)
    assert sub.pair == (3, 12)
    assert sub.labels[0] == sub.labels[1] == (1, 0)
