import numpy as np
import pytest
import scipy.sparse as sp

from unilp.autodiff import Tape, const
from unilp.errors import ConfigError
from unilp.graphs import Graph, LatticeSpec, generate_lattice
from unilp.labeling import LabeledSubgraph, LabelVocab, labeled_subgraph
from unilp.model import (
    ContextSet,
    _assemble_batch,
    GRADCHECK_CONFIG,
    ModelConfig,
    attention_scores,
    batch_loss,
    encode_subgraph,
    encode_subgraphs,
    forward,
    init_params,
    model_gradient_check,
)
from unilp.rng import derive_rng
from unilp.training import LinkDataset, sample_context

SMALL = ModelConfig(
    hidden_dim=16, attention_dim=16, embed_dim=16,
    encoder_layers=2, mlp_layers=2, mlp_hidden=16,
)


def triangular(rows=8, cols=8):
    return generate_lattice(LatticeSpec(kind="triangular", rows=rows, cols=cols, torus=True))


@pytest.fixture(scope="module")
def dataset():
    return LinkDataset.from_graph("tri", triangular(), seed=3)


@pytest.fixture(scope="module")
def params():
    return init_params(SMALL, seed=0)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_and_round_trip():
    with pytest.raises(ConfigError):
        ModelConfig(heads=3, attention_dim=16)
    with pytest.raises(ConfigError):
        ModelConfig(mode="transductive")
    with pytest.raises(ConfigError):
        ModelConfig(hidden_dim=0)
    cfg = ModelConfig(hidden_dim=8, heads=2, attention_dim=8)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"hidden": 8})


def test_init_params_shapes_and_determinism():
    cfg = SMALL
    a = init_params(cfg, seed=5)
    b = init_params(cfg, seed=5)
    c = init_params(cfg, seed=6)
    assert set(a) == {
        "embed.table", "enc.0.self", "enc.0.neigh", "enc.1.self", "enc.1.neigh",
        "attn.key", "attn.vec", "attn.value", "label.pos", "label.neg",
        "mlp.0.w", "mlp.0.b", "mlp.1.w", "mlp.1.b",
    }
    assert a["embed.table"].shape == (cfg.vocab.size, 16)
    assert a["attn.key"].shape == (32, 16)
    assert a["mlp.1.w"].shape == (16, 1)
    assert a["mlp.0.b"].values.tolist() == [0.0] * 16
    for name in a:
        assert np.array_equal(a[name].values, b[name].values), name
    assert not np.array_equal(a["attn.key"].values, c["attn.key"].values)


# ---------------------------------------------------------------------------
# encoder


def test_encoding_uses_only_structure_and_labels(params):
    # same canonical subgraph arises from two different host graphs
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    p6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    sub_a = labeled_subgraph(p4, (1, 2), radius=1)
    sub_b = labeled_subgraph(p6, (2, 3), radius=1)
    assert sub_a.adj == sub_b.adj and sub_a.labels == sub_b.labels
    h_a = encode_subgraph(params, SMALL, sub_a)
    h_b = encode_subgraph(params, SMALL, sub_b)
    assert np.array_equal(h_a.values, h_b.values)


def test_encoding_invariant_under_host_relabeling(params):
    g = triangular(6, 6)
    n = g.n
    perm = derive_rng(1, "test-model-perm").permutation(n)
    h = Graph.from_edges(n, [(int(perm[a]), int(perm[b])) for a, b in g.edge_array().tolist()])
    for u, v in [(0, 1), (3, 20), (7, 8)]:
        ha = encode_subgraph(params, SMALL, labeled_subgraph(g, (u, v), radius=1))
        hb = encode_subgraph(params, SMALL, labeled_subgraph(h, (int(perm[u]), int(perm[v])), radius=1))
        assert np.allclose(ha.values, hb.values, rtol=1e-9, atol=1e-12)


def test_batched_encoding_matches_and_is_row_independent(params, dataset):
    ctx = sample_context(dataset, 6, seed=1)
    subs = list(ctx.positives) + list(ctx.negatives)
    tape = Tape()
    batch = encode_subgraphs(params, SMALL, subs, tape).values
    single = encode_subgraph(params, SMALL, subs[4]).values
    assert np.array_equal(batch[4], single)
    perm = list(derive_rng(2, "test-model-batch").permutation(len(subs)))
    hp = encode_subgraphs(params, SMALL, [subs[i] for i in perm], tape).values
    for k, i in enumerate(perm):
        assert np.array_equal(hp[k], batch[i])


def reference_assemble_batch(subs, vocab):
    """The per-node loop over labels and adjacency that _assemble_batch's
    array form must reproduce exactly."""
    idx, a_r, a_c, a_d, p_r, p_c, p_d = [], [], [], [], [], [], []
    offset = 0
    for s, sub in enumerate(subs):
        idx.extend(vocab.index(t) for t in sub.labels)
        for i in range(sub.n):
            for j in sub.adj[i]:
                a_r.append(offset + i)
                a_c.append(offset + j)
                a_d.append(1.0 / len(sub.adj[i]))
            p_r.append(s)
            p_c.append(offset + i)
            p_d.append(1.0 / sub.n)
        offset += sub.n
    agg = sp.csr_matrix((a_d, (a_r, a_c)), shape=(offset, offset))
    pool = sp.csr_matrix((p_d, (p_r, p_c)), shape=(len(subs), offset))
    return np.array(idx, dtype=np.int64), agg, pool


def test_assemble_batch_matches_per_node_loop(dataset):
    isolated = labeled_subgraph(Graph.from_edges(4, [(0, 1), (2, 3)]), (0, 1), radius=1)
    path = Graph.from_edges(12, [(i, i + 1) for i in range(11)])
    deep = labeled_subgraph(path, (0, 11), radius=4)  # one-sided distances up to 4
    wide = labeled_subgraph(triangular(), (0, 27), radius=3)  # drnl labels up to 10
    ctx = sample_context(dataset, 5, seed=3)
    members = list(ctx.positives) + list(ctx.negatives)
    batches = [[isolated], [deep], [wide], [isolated, deep, wide] + members, members[:1]]
    for vocab in (LabelVocab(), LabelVocab(drnl_cap=3, dist_cap=2)):
        for subs in batches:
            want_idx, want_agg, want_pool = reference_assemble_batch(subs, vocab)
            idx, agg, pool = _assemble_batch(subs, vocab)
            assert idx.dtype == want_idx.dtype and np.array_equal(idx, want_idx)
            for got, want in ((agg, want_agg), (pool, want_pool)):
                assert got.shape == want.shape
                for part in ("indptr", "indices", "data"):
                    a, b = getattr(got, part), getattr(want, part)
                    assert a.dtype == b.dtype and np.array_equal(a, b), part
    assert max(wide.labels)[0] > 3 and max(deep.labels, key=lambda t: t[1])[1] > 2


def test_assemble_batch_rejects_unlabeled_and_malformed(dataset):
    sub = sample_context(dataset, 1, seed=0).positives[0]
    with pytest.raises(ConfigError):
        _assemble_batch([], LabelVocab())
    with pytest.raises(ConfigError):
        _assemble_batch([sub, LabeledSubgraph(nodes=sub.nodes, adj=sub.adj, radius=1)], LabelVocab())
    bad = sub.with_labels([(1, 1)] + list(sub.labels[1:]))
    with pytest.raises(ConfigError, match="malformed label"):
        _assemble_batch([sub, bad], LabelVocab())


def test_isolated_targets_encode_without_error(params):
    # pair whose edge removal isolates both endpoints
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    sub = labeled_subgraph(g, (0, 1), radius=1)
    assert sub.n == 2 and sub.adj == ((), ())
    h = encode_subgraph(params, SMALL, sub)
    assert np.isfinite(h.values).all()


# ---------------------------------------------------------------------------
# attention


def test_attention_weights_sum_to_one_per_head(params):
    rng = derive_rng(0, "test-attn")
    hq = const(rng.normal(size=16))
    for m in (1, 3, 40, 400):
        h_ctx = const(rng.normal(size=(m, 16)))
        alphas = attention_scores(params, SMALL, hq, h_ctx, Tape())
        assert len(alphas) == 1
        for alpha in alphas:
            assert alpha.values.shape == (m,)
            assert alpha.values.sum() == pytest.approx(1.0, abs=1e-12)
            assert (alpha.values > 0).all()


def test_attention_permutation_equivariant_bitwise(params, dataset):
    ctx = sample_context(dataset, 7, seed=1)
    subs = list(ctx.positives) + list(ctx.negatives)
    tape = Tape()
    H = encode_subgraphs(params, SMALL, subs, tape).values
    hq = tape.reshape(
        encode_subgraphs(params, SMALL, [labeled_subgraph(dataset.observed, (0, 1), 1)], tape),
        (SMALL.hidden_dim,),
    )
    base = attention_scores(params, SMALL, hq, const(H), tape)
    for trial in range(3):
        perm = list(derive_rng(trial, "test-attn-perm").permutation(len(subs)))
        moved = attention_scores(params, SMALL, hq, const(H[perm]), tape)
        for h in range(len(base)):
            assert np.array_equal(moved[h].values, base[h].values[perm])


def test_multi_head_covers_all_value_columns(dataset):
    cfg = ModelConfig(
        hidden_dim=16, attention_dim=16, embed_dim=16, encoder_layers=2,
        mlp_hidden=16, heads=4,
    )
    params = init_params(cfg, 1)
    ctx = sample_context(dataset, 4, seed=2)
    prob = forward(params, cfg, dataset.observed, (0, 5), ctx)
    assert prob.values.shape == (1,)
    assert 0.0 < prob.item() < 1.0
    alphas = attention_scores(
        params, cfg, const(np.zeros(16)), const(np.ones((5, 16))), Tape()
    )
    assert len(alphas) == 4


# ---------------------------------------------------------------------------
# full forward pass


def test_forward_deterministic(params, dataset):
    ctx = sample_context(dataset, 5, seed=4)
    a = forward(params, SMALL, dataset.observed, (0, 9), ctx)
    b = forward(params, SMALL, dataset.observed, (0, 9), ctx)
    assert a.values.tolist() == b.values.tolist()


def test_zeroed_output_layer_predicts_half(params, dataset):
    ctx = sample_context(dataset, 5, seed=4)
    from unilp.autodiff import clone_params

    neutral = clone_params(params)
    neutral["mlp.1.w"].values[:] = 0.0
    neutral["mlp.1.b"].values[:] = 0.0
    prob = forward(neutral, SMALL, dataset.observed, (0, 9), ctx)
    assert prob.item() == 0.5


def test_label_flip_keeps_attention_but_moves_probability(params, dataset):
    ctx = sample_context(dataset, 6, seed=2)
    flipped = ContextSet(positives=ctx.negatives, negatives=ctx.positives)
    gap = np.linalg.norm(params["label.pos"].values - params["label.neg"].values)
    assert gap > 1e-3
    base = forward(params, SMALL, dataset.observed, (0, 9), ctx)
    flip = forward(params, SMALL, dataset.observed, (0, 9), flipped)
    assert abs(base.item() - flip.item()) > 1e-6


def test_no_context_mode_ignores_context(dataset):
    cfg = ModelConfig.from_dict({**SMALL.to_dict(), "mode": "no_context"})
    params = init_params(cfg, 0)
    ctx = sample_context(dataset, 5, seed=1)
    other = sample_context(dataset, 9, seed=2)
    a = forward(params, cfg, dataset.observed, (0, 9), ctx)
    b = forward(params, cfg, dataset.observed, (0, 9), None)
    c = forward(params, cfg, dataset.observed, (0, 9), other)
    assert a.values.tolist() == b.values.tolist() == c.values.tolist()


def test_icl_mode_requires_context(params, dataset):
    with pytest.raises(ConfigError):
        forward(params, SMALL, dataset.observed, (0, 9), None)
    empty = ContextSet(positives=(), negatives=())
    with pytest.raises(ConfigError):
        forward(params, SMALL, dataset.observed, (0, 9), empty)


def test_context_set_rejects_unlabeled(dataset):
    from unilp.labeling import extract_ego_subgraph

    bare = extract_ego_subgraph(dataset.observed, (0, 1), 1)
    with pytest.raises(ConfigError):
        ContextSet(positives=(bare,), negatives=())


def test_batch_loss_matches_individual_losses(params, dataset):
    ctx = sample_context(dataset, 4, seed=6)
    queries = [(0, 9), (3, 12), (40, 41)]
    labels = [1.0, 0.0, 1.0]
    items = [
        (labeled_subgraph(dataset.observed, q, SMALL.radius), ctx, y)
        for q, y in zip(queries, labels)
    ]
    tape = Tape()
    batched = batch_loss(params, SMALL, items, tape).item()
    singles = []
    for q, y in zip(queries, labels):
        t = Tape()
        prob = forward(params, SMALL, dataset.observed, q, ctx, tape=t)
        singles.append(t.bce(prob, y).item())
    assert batched == pytest.approx(float(np.mean(singles)), rel=1e-12)


def test_batch_loss_backward_touches_all_parameters(params, dataset):
    ctx = sample_context(dataset, 3, seed=8)
    items = [(labeled_subgraph(dataset.observed, (0, 9), 1), ctx, 1.0)]
    from unilp.autodiff import clone_params, zero_grad

    local = clone_params(params)
    tape = Tape()
    loss = batch_loss(local, SMALL, items, tape)
    tape.backward(loss)
    for name, t in local.items():
        assert t.grad is not None, name
    zero_grad(local)


# ---------------------------------------------------------------------------
# end-to-end gradient fidelity


def test_model_gradient_check_both_modes():
    assert model_gradient_check(0) < 1e-4
    nc = ModelConfig.from_dict({**GRADCHECK_CONFIG.to_dict(), "mode": "no_context"})
    assert model_gradient_check(0, nc) < 1e-4


def test_model_gradient_check_multi_head():
    cfg = ModelConfig.from_dict({**GRADCHECK_CONFIG.to_dict(), "heads": 2})
    assert model_gradient_check(1, cfg) < 1e-4
