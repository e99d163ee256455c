import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from unilp.autodiff import PROB_EPS, Tape, const
from unilp.errors import ConfigError
from unilp.graphs import Graph, LatticeSpec, generate_lattice
from unilp.labeling import LabelVocab, labeled_subgraph
from unilp.model import (
    ContextSet,
    _assemble_batch,
    GRADCHECK_CONFIG,
    ModelConfig,
    attention_scores,
    batch_loss,
    contextualize,
    encode_subgraphs,
    forward,
    init_params,
    model_gradient_check,
    predict,
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


def encode_one(params, cfg, sub, tape=None):
    """One subgraph's embedding as a 1-D tensor of width hidden_dim."""
    tape = Tape() if tape is None else tape
    return tape.reshape(encode_subgraphs(params, cfg, [sub], tape), (cfg.hidden_dim,))


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_and_round_trip():
    with pytest.raises(ConfigError):
        ModelConfig(heads=3, attention_dim=16)
    with pytest.raises(ConfigError):
        ModelConfig(mode="transductive")
    with pytest.raises(ConfigError):
        ModelConfig(hidden_dim=0)
    for bad in (dict(hidden_dim=8.5), dict(radius=1.0), dict(dist_cap=True), dict(max_per_hop=2.5),
                dict(leaky_slope="abc"), dict(leaky_slope=True), dict(leaky_slope=None),
                dict(leaky_slope=float("nan")), dict(leaky_slope=float("inf")),
                dict(leaky_slope=-float("inf")), dict(leaky_slope=-0.01), dict(leaky_slope=1.5)):
        with pytest.raises(ConfigError):
            ModelConfig(**bad)
    assert ModelConfig(leaky_slope=np.float64(0.2)).leaky_slope == 0.2
    assert ModelConfig(leaky_slope=0).leaky_slope == 0 and ModelConfig(leaky_slope=1.0).leaky_slope == 1
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
    h_a = encode_one(params, SMALL, sub_a)
    h_b = encode_one(params, SMALL, sub_b)
    assert np.array_equal(h_a.values, h_b.values)


def test_encoding_invariant_under_host_relabeling(params):
    g = triangular(6, 6)
    n = g.n
    perm = derive_rng(1, "test-model-perm").permutation(n)
    h = Graph.from_edges(n, [(int(perm[a]), int(perm[b])) for a, b in g.edge_array().tolist()])
    for u, v in [(0, 1), (3, 20), (7, 8)]:
        ha = encode_one(params, SMALL, labeled_subgraph(g, (u, v), radius=1))
        hb = encode_one(params, SMALL, labeled_subgraph(h, (int(perm[u]), int(perm[v])), radius=1))
        assert np.allclose(ha.values, hb.values, rtol=1e-9, atol=1e-12)


def test_batched_encoding_matches_and_is_row_independent(params, dataset):
    ctx = sample_context(dataset, 6, seed=1)
    subs = list(ctx.positives) + list(ctx.negatives)
    tape = Tape()
    batch = encode_subgraphs(params, SMALL, subs, tape).values
    single = encode_one(params, SMALL, subs[4]).values
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


def test_assemble_batch_rejects_empty_and_malformed(dataset):
    sub = sample_context(dataset, 1, seed=0).positives[0]
    with pytest.raises(ConfigError):
        _assemble_batch([], LabelVocab())
    bad = dataclasses.replace(sub, labels=((1, 1),) + sub.labels[1:])
    with pytest.raises(ConfigError, match="malformed label"):
        _assemble_batch([sub, bad], LabelVocab())


def test_isolated_targets_encode_without_error(params):
    # pair whose edge removal isolates both endpoints
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    sub = labeled_subgraph(g, (0, 1), radius=1)
    assert sub.n == 2 and sub.adj == ((), ())
    h = encode_one(params, SMALL, sub)
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
    # Tape.bce sums left to right, then scales by 1/n (np.mean divides by n)
    assert batched == float(np.cumsum(singles)[-1] * (1.0 / len(singles)))


def per_head_weights(cfg, z, attn_vec, tape):
    width = cfg.attention_dim // cfg.heads
    return [
        tape.softmax(tape.dot_rows(
            tape.slice_last(z, lo, lo + width), tape.slice_last(attn_vec, lo, lo + width)
        ))
        for lo in range(0, cfg.attention_dim, width)
    ]


def reference_attention(params, cfg, h_q, h_ctx, tape):
    """Per-head loop over 1-D and 2-D tape ops: the definition of the
    attention weights of one query. Member i's key is
    leaky_relu(h_q @ key[:F] + h_ctx[i] @ key[F:])."""
    dim, key = cfg.hidden_dim, params["attn.key"]
    query_key = tape.matmul(tape.reshape(h_q, (1, dim)), tape.take_rows(key, np.arange(dim)))  # (1, F')
    context_key = tape.matmul(h_ctx, tape.take_rows(key, np.arange(dim, 2 * dim)))  # (m, F')
    z = tape.leaky_relu(tape.add(query_key, context_key), cfg.leaky_slope)
    return per_head_weights(cfg, z, params["attn.vec"], tape)


def concat_form_attention(params, cfg, h_q, h_ctx, tape):
    """The same weights from one (m, 2F) @ (2F, F') product over the
    concatenated key inputs [h_q, h_ctx[i]]; equal up to rounding."""
    keys_in = tape.concat(tape.reshape(h_q, (1, cfg.hidden_dim)), h_ctx)  # (m, 2F)
    z = tape.leaky_relu(tape.matmul(keys_in, params["attn.key"]), cfg.leaky_slope)
    return per_head_weights(cfg, z, params["attn.vec"], tape)


def reference_contextualize(params, cfg, alphas, h_ctx, n_pos, tape):
    m, width = h_ctx.values.shape[0], cfg.attention_dim // cfg.heads
    parts = []
    for start, stop, label in ((0, n_pos, "label.pos"), (n_pos, m, "label.neg")):
        if start < stop:
            rows = tape.take_rows(h_ctx, np.arange(start, stop))
            parts.append((start, stop, tape.matmul(tape.add(rows, params[label]), params["attn.value"])))
    out = None
    for head, alpha in enumerate(alphas):
        lo = head * width
        part = None
        for start, stop, projected in parts:
            term = tape.matmul(tape.slice_last(alpha, start, stop),
                               tape.slice_last(projected, lo, lo + width))
            part = term if part is None else tape.add(part, term)
        out = part if out is None else tape.concat(out, part)
    return out


def reference_predict(params, cfg, h_tilde, tape):
    z = h_tilde
    for layer in range(cfg.mlp_layers):
        z = tape.add(tape.matmul(z, params[f"mlp.{layer}.w"]), params[f"mlp.{layer}.b"])
        if layer < cfg.mlp_layers - 1:
            z = tape.leaky_relu(z, cfg.leaky_slope)
    return tape.clamp(tape.sigmoid(z), PROB_EPS, 1.0 - PROB_EPS)


def test_attention_path_matches_per_head_loops_bitwise():
    rng = derive_rng(0, "test-model-heads")
    for heads in (1, 2, 4):
        cfg = ModelConfig.from_dict({**SMALL.to_dict(), "heads": heads})
        params = init_params(cfg, heads)
        for m, n_pos in ((1, 1), (1, 0), (6, 0), (6, 6), (7, 3), (40, 20)):
            h_q = rng.normal(size=(3, 16))
            h_ctx = rng.normal(size=(3, m, 16))
            tape = Tape()
            batched_alpha = attention_scores(params, cfg, const(h_q), const(h_ctx), tape)
            batched_tilde = contextualize(params, cfg, batched_alpha, const(h_ctx), n_pos, tape)
            batched_prob = predict(params, cfg, batched_tilde, tape).values
            # one (1, m, F) context shared by all three queries
            shared_ctx = const(h_ctx[1:2])
            shared_alpha = attention_scores(params, cfg, const(h_q), shared_ctx, tape)
            shared_tilde = contextualize(params, cfg, shared_alpha, shared_ctx, n_pos, tape)
            shared_prob = predict(params, cfg, shared_tilde, tape).values
            for b in range(3):
                for got_alpha, got_tilde, got_prob, c in (
                    (batched_alpha, batched_tilde, batched_prob, b),
                    (shared_alpha, shared_tilde, shared_prob, 1),
                ):
                    q, ctx = const(h_q[b]), const(h_ctx[c])
                    want_alpha = reference_attention(params, cfg, q, ctx, tape)
                    want_tilde = reference_contextualize(params, cfg, want_alpha, ctx, n_pos, tape)
                    want_prob = reference_predict(params, cfg, want_tilde, tape).values
                    concat_alpha = concat_form_attention(params, cfg, q, ctx, tape)
                    for h in range(heads):
                        assert np.array_equal(got_alpha.values[b, h], want_alpha[h].values)
                        gap = np.abs(want_alpha[h].values - concat_alpha[h].values)
                        assert (gap <= 1e-12 * concat_alpha[h].values).all()
                    assert np.array_equal(got_tilde.values[b], want_tilde.values)
                    assert got_prob[b] == want_prob[0]
                # the lone-query form: (F,) against (m, F), one (m,) tensor per head
                lone = attention_scores(params, cfg, const(h_q[b]), const(h_ctx[b]), tape)
                assert len(lone) == heads
                for h in range(heads):
                    assert np.array_equal(lone[h].values, batched_alpha.values[b, h])


def test_attention_rejects_other_context_layouts(params):
    rng = derive_rng(1, "test-attn-layouts")
    h_q = const(rng.normal(size=(2, 16)))
    for shape in ((5, 16), (3, 5, 16), (2, 0, 16), (1, 2, 5, 16)):
        with pytest.raises(ConfigError):
            attention_scores(params, SMALL, h_q, const(rng.normal(size=shape)), Tape())


def reference_batch_loss(params, cfg, items):
    """Per-query loop over reference_attention, reference_contextualize and
    reference_predict: the definition batch_loss must reproduce. Returns
    (loss, gradients)."""
    from unilp.autodiff import zero_grad

    tape = Tape()
    total = None
    for query_sub, context, label in items:
        if cfg.mode == "no_context":
            h_tilde = tape.matmul(encode_one(params, cfg, query_sub, tape), params["attn.value"])
        else:
            subs = [query_sub] + list(context.positives) + list(context.negatives)
            h_all = encode_subgraphs(params, cfg, subs, tape)
            h_q = tape.reshape(tape.take_rows(h_all, [0]), (cfg.hidden_dim,))
            h_ctx = tape.take_rows(h_all, np.arange(1, len(subs)))
            alphas = reference_attention(params, cfg, h_q, h_ctx, tape)
            h_tilde = reference_contextualize(params, cfg, alphas, h_ctx, len(context.positives), tape)
        loss = tape.bce(reference_predict(params, cfg, h_tilde, tape), label)
        total = loss if total is None else tape.add(total, loss)
    loss = tape.scale(total, 1.0 / len(items))
    tape.backward(loss)
    grads = {name: t.grad.copy() for name, t in params.items() if t.grad is not None}
    zero_grad(params)
    return loss.item(), grads


def batched_loss_and_grads(params, cfg, items):
    from unilp.autodiff import zero_grad

    tape = Tape()
    loss = batch_loss(params, cfg, items, tape)
    tape.backward(loss)
    grads = {name: t.grad.copy() for name, t in params.items() if t.grad is not None}
    zero_grad(params)
    return loss.item(), grads


def test_batch_loss_matches_per_query_reference(dataset):
    multi = ModelConfig.from_dict({**SMALL.to_dict(), "heads": 4})
    no_ctx = ModelConfig.from_dict({**SMALL.to_dict(), "mode": "no_context"})
    g = dataset.observed
    edges = [tuple(e) for e in g.edge_array().tolist()]
    sub = lambda pair: dataset.subgraph(pair, SMALL)
    pos = [sub(e) for e in edges[:12]]
    neg = [sub(p) for p in [(0, 20), (1, 30), (2, 40), (3, 50), (4, 60), (5, 33)]]
    shared = ContextSet(positives=tuple(pos[:3]), negatives=tuple(neg[:3]))
    overlap = ContextSet(positives=tuple(pos[2:5]), negatives=tuple(neg[1:4]))  # shares members
    only_neg = ContextSet(positives=(), negatives=tuple(neg[1:5]))
    only_pos = ContextSet(positives=tuple(pos[4:9]), negatives=())
    queries = [sub((0, 9)), sub((3, 12)), sub(edges[20]), pos[1], neg[4]]
    labels = [1.0, 0.0, 1.0, 1.0, 0.0]
    batches = {
        "single": [(queries[0], shared, 1.0)],
        "repeated context objects": [(q, shared, y) for q, y in zip(queries, labels)],
        "n_pos = 0": [(queries[1], only_neg, 0.0), (queries[3], only_neg, 1.0)],
        "n_pos = m": [(queries[2], only_pos, 1.0), (queries[4], only_pos, 0.0)],
        "overlapping contexts": [
            (queries[0], shared, 1.0), (queries[1], overlap, 0.0),
            (queries[4], shared, 0.0), (queries[0], overlap, 1.0),
        ],
    }
    for cfg, seed in ((SMALL, 0), (multi, 1), (no_ctx, 2)):
        params = init_params(cfg, seed)
        for name, items in batches.items():
            want_loss, want_grads = reference_batch_loss(params, cfg, items)
            got_loss, got_grads = batched_loss_and_grads(params, cfg, items)
            assert got_loss == want_loss, (cfg.heads, cfg.mode, name)
            assert got_grads.keys() == want_grads.keys()
            for pname, want in want_grads.items():
                gap = np.abs(got_grads[pname] - want).max()
                assert gap <= 1e-12 * np.abs(want).max(), (cfg.heads, cfg.mode, name, pname, gap)
    ragged = [(queries[0], shared, 1.0), (queries[1], only_neg, 0.0)]
    with pytest.raises(ConfigError, match="one context shape"):
        batch_loss(init_params(SMALL, 0), SMALL, ragged, Tape())


def test_batch_loss_encodes_each_subgraph_once_and_tape_does_not_grow(params, dataset):
    ctx = sample_context(dataset, 4, seed=3)
    queries = [dataset.subgraph(e, SMALL) for e in dataset.observed.edge_array().tolist()[:16]]
    seen, nodes = [], []
    import unilp.model as model_module

    original = model_module.encode_subgraphs

    def counting(ps, cfg, subs, tape):
        seen.append(len(subs))
        return original(ps, cfg, subs, tape)

    model_module.encode_subgraphs = counting
    try:
        for b in (1, 4, 16):
            tape = Tape()
            batch_loss(params, SMALL, [(q, ctx, 1.0) for q in queries[:b]], tape)
            nodes.append(len(tape._nodes))
    finally:
        model_module.encode_subgraphs = original
    assert seen == [1 + ctx.size, 4 + ctx.size, 16 + ctx.size]
    assert nodes[0] == nodes[1] == nodes[2]


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
