import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from unilp.autodiff import PROB_EPS, Tape, const
from unilp.errors import ConfigError
from unilp.graphs import Graph, LatticeSpec, generate_lattice
from unilp.labeling import labeled_subgraph, pack_content
from unilp.model import (
    ContextSet,
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
import unilp.model as model_module
from unilp.rng import derive_rng
from unilp.training import LinkDataset, sample_context

from oracles import ReferenceTape

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
    """The node-level operators of a batch, built by a per-node loop over
    labels and adjacency: label indices, the neighbour-mean operator over
    nodes (1/deg(i) at each neighbour of i) and the per-subgraph mean-pool
    operator (1/n_s at each node of s)."""
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


def reference_colour_counts(subs, vocab, depth):
    """Distinct Weisfeiler-Lehman colours of a batch's nodes at depths 1 to
    depth, refined by a per-node loop: a node's next colour is its colour
    with the sorted colours of its neighbours."""
    colours = [vocab.index(t) for sub in subs for t in sub.labels]
    adj, offset = [], 0
    for sub in subs:
        adj.extend([offset + j for j in row] for row in sub.adj)
        offset += sub.n
    counts = []
    for _ in range(depth):
        keys = [(colours[i], tuple(sorted(colours[j] for j in adj[i]))) for i in range(offset)]
        ids = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        colours = [ids[key] for key in keys]
        counts.append(len(ids))
    return counts


def mixed_batch(dataset):
    """Torus queries and context members, an isolated pair, a deep path
    pair, a wide torus pair, and a star's centre with one of its 2,000
    leaves, so one node has degree 1,999."""
    ctx = sample_context(dataset, 5, seed=3)
    queries = [dataset.subgraph(e, SMALL) for e in dataset.observed.edge_array().tolist()[:8]]
    path = Graph.from_edges(12, [(i, i + 1) for i in range(11)])
    star = Graph.from_edges(2001, [(0, i) for i in range(1, 2001)])
    return queries + list(ctx.positives) + list(ctx.negatives) + [
        labeled_subgraph(Graph.from_edges(4, [(0, 1), (2, 3)]), (0, 1), radius=1),
        labeled_subgraph(path, (0, 11), radius=4),
        labeled_subgraph(triangular(), (0, 27), radius=3),
        labeled_subgraph(star, (0, 1), radius=1),
    ]


def test_each_layer_runs_once_per_distinct_colour(dataset, monkeypatch):
    subs = mixed_batch(dataset)
    layer_rows = []
    original = Tape.leaky_relu

    def spy(self, x, slope=0.01):
        layer_rows.append(x.shape[0])
        return original(self, x, slope)

    monkeypatch.setattr(Tape, "leaky_relu", spy)
    for layers in (1, 2, 3):
        cfg = dataclasses.replace(SMALL, encoder_layers=layers)
        for batch in (subs, subs[:3], subs[-4:-3], subs[-1:]):
            layer_rows.clear()
            h = encode_subgraphs(init_params(cfg, 0), cfg, batch, Tape())
            assert h.shape == (len(batch), cfg.hidden_dim)
            assert layer_rows == reference_colour_counts(batch, cfg.vocab, layers), (layers, len(batch))
    # the star alone: its centre, its isolated leaf target and 1,999 other leaves
    assert layer_rows == [3, 3, 3]
    layer_rows.clear()
    encode_subgraphs(init_params(SMALL, 0), SMALL, subs, Tape())
    assert max(layer_rows) < sum(sub.n for sub in subs) / 10


def test_colour_keys_hold_one_entry_per_node_and_adjacency_entry(dataset, monkeypatch):
    # keys grouped by degree, not padded to the star's degree of 1,999
    subs = mixed_batch(dataset)
    sizes = []
    original = model_module._refine

    def spy(colour, deg, groups, *rest):
        sizes.append(sum(group.size + rows.size for group, rows in groups))
        return original(colour, deg, groups, *rest)

    monkeypatch.setattr(model_module, "_refine", spy)
    encode_subgraphs(init_params(SMALL, 0), SMALL, subs, Tape())
    assert sizes == [sum(sub.n + sum(map(len, sub.adj)) for sub in subs)] * SMALL.encoder_layers


def test_colour_rows_are_bitwise_equal_in_any_batch(dataset):
    subs = mixed_batch(dataset)
    for layers in (1, 3):
        cfg = dataclasses.replace(SMALL, encoder_layers=layers)
        params = init_params(cfg, layers)
        full = encode_subgraphs(params, cfg, subs, Tape()).values
        for i, sub in enumerate(subs):
            assert np.array_equal(encode_subgraphs(params, cfg, [sub], Tape()).values[0], full[i]), i
        for trial in range(3):
            picks = derive_rng(trial, "test-colour-batch").permutation(len(subs))[:len(subs) // 2 + trial]
            h = encode_subgraphs(params, cfg, [subs[i] for i in picks], Tape()).values
            assert np.array_equal(h, full[picks]), (layers, trial)


def reference_encode(params, cfg, subs, tape):
    """The gathered form of the encoder: every node's label row is gathered
    from embed.table, and each layer, the first included, multiplies the
    (N, width) node block. encode_subgraphs must reproduce it up to the
    summation order of its neighbour means and its pool."""
    idx, agg, pool = reference_assemble_batch(subs, cfg.vocab)
    h = tape.take_rows(params["embed.table"], idx)
    for layer in range(cfg.encoder_layers):
        own = tape.matmul(h, params[f"enc.{layer}.self"])
        nbr = tape.matmul(tape.spmm(agg, h), params[f"enc.{layer}.neigh"])
        h = tape.leaky_relu(tape.add(own, nbr), cfg.leaky_slope)
    return tape.spmm(pool, h)


def test_encoder_matches_gathered_reference(dataset, monkeypatch):
    import unilp.model as model_module

    ctx = sample_context(dataset, 6, seed=5)
    members = list(ctx.positives) + list(ctx.negatives)
    edges = dataset.observed.edge_array().tolist()
    queries = [dataset.subgraph(e, SMALL) for e in edges[:6]] + [dataset.subgraph((0, 30), SMALL)]
    isolated = labeled_subgraph(Graph.from_edges(4, [(0, 1), (2, 3)]), (0, 1), radius=1)
    subs = queries + members + [isolated, labeled_subgraph(triangular(), (0, 27), radius=3)]
    items = [(q, ctx, float(i % 2)) for i, q in enumerate(queries)]
    deep = ModelConfig.from_dict({**SMALL.to_dict(), "encoder_layers": 3, "embed_dim": 8,
                                  "heads": 2, "drnl_cap": 3, "dist_cap": 2})
    for cfg, seed in ((SMALL, 0), (deep, 1)):
        params = init_params(cfg, seed)
        got = encode_subgraphs(params, cfg, subs, Tape()).values
        want = reference_encode(params, cfg, subs, Tape()).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        got_loss, got_grads = batched_loss_and_grads(params, cfg, items)
        monkeypatch.setattr(model_module, "encode_subgraphs", reference_encode)
        want_loss, want_grads = batched_loss_and_grads(params, cfg, items)
        monkeypatch.undo()
        assert got_loss == pytest.approx(want_loss, rel=1e-12)
        assert got_grads.keys() == want_grads.keys() == params.keys()
        for name, want in want_grads.items():
            gap = np.abs(got_grads[name] - want).max()
            assert gap <= 1e-9 * np.abs(want).max(), (cfg.encoder_layers, name, gap)


def test_encode_subgraphs_rejects_empty_and_malformed(dataset, params):
    sub = sample_context(dataset, 1, seed=0).positives[0]
    with pytest.raises(ConfigError, match="empty list"):
        encode_subgraphs(params, SMALL, [], Tape())
    for label in ((1, 1), (-1, 0), (0, -2)):
        bad = dataclasses.replace(sub, content=pack_content((label,) + sub.labels[1:], sub.adj))
        with pytest.raises(ConfigError, match="malformed label"):
            encode_subgraphs(params, SMALL, [sub, bad], Tape())


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


def test_attention_path_matches_per_head_loops_bitwise(monkeypatch):
    import unilp.autodiff as autodiff

    rng = derive_rng(0, "test-model-heads")
    default_tile = autodiff.KEY_SCORES_TILE
    # the default tile holds all three queries; a tile of two splits them 2 + 1
    for heads, tile in ((1, None), (2, None), (4, None), (1, 2), (4, 2)):
        cfg = ModelConfig.from_dict({**SMALL.to_dict(), "heads": heads})
        params = init_params(cfg, heads)
        for m, n_pos in ((1, 1), (1, 0), (6, 0), (6, 6), (7, 3), (40, 20)):
            budget = default_tile if tile is None else tile * m * cfg.attention_dim
            monkeypatch.setattr(autodiff, "KEY_SCORES_TILE", budget)
            h_q = rng.normal(size=(3, 16))
            h_ctx = rng.normal(size=(3, m, 16))
            tape = ReferenceTape()
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

    tape = ReferenceTape()
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


def equal_content_copy(sub, **changes):
    """Another subgraph object with sub's labels and adjacency, packed again
    into a new bytes object, under other node ids unless changes name
    other fields to change."""
    changes = changes or {"nodes": tuple(node + 1000 for node in sub.nodes)}
    return dataclasses.replace(sub, content=pack_content(sub.labels, sub.adj), **changes)


def test_equal_content_gives_equal_keys_and_bitwise_equal_encoder_rows(params, dataset):
    subs = [dataset.subgraph(e, SMALL) for e in dataset.observed.edge_array().tolist()]
    groups = {}
    for sub in subs:
        groups.setdefault((sub.labels, sub.adj), []).append(sub)
    # distinct pairs of the torus whose labelled neighbourhoods coincide
    twins = next(group for group in groups.values() if len(group) > 1)
    assert twins[0].pair != twins[1].pair
    first = subs[0]
    copies = [equal_content_copy(first), equal_content_copy(first, radius=2)]
    for a, b in [twins[:2]] + [(first, copy) for copy in copies]:
        assert a is not b and a.content is not b.content
        assert a.content == b.content and hash(a.content) == hash(b.content)
    assert first.content is first.content  # built once, kept on the object
    rest = [sub for sub in subs[1:20] if (sub.labels, sub.adj) != (first.labels, first.adj)]
    assert all(sub.content != first.content for sub in rest)

    want = encode_one(params, SMALL, first).values
    for batch in ([copies[0]], [first] + rest + copies, copies + rest + [first],
                  rest[:7] + [copies[1]] + rest[7:] + [first]):
        h = encode_subgraphs(params, SMALL, batch, Tape()).values
        for i, sub in enumerate(batch):
            if sub.content == first.content:
                assert np.array_equal(h[i], want), i
    for twin in twins:
        h = encode_subgraphs(params, SMALL, rest[:5] + [twin] + rest[5:], Tape()).values
        assert np.array_equal(h[5], encode_one(params, SMALL, twins[0]).values)


def batch_with_equal_content_copies(dataset):
    """Items whose queries and context members repeat contents under other
    subgraph objects: a query copy, and a context with a member copy."""
    ctx = sample_context(dataset, 4, seed=3)
    copied = ContextSet(positives=(equal_content_copy(ctx.positives[0]),) + ctx.positives[1:],
                        negatives=ctx.negatives)
    queries = [dataset.subgraph(e, SMALL) for e in dataset.observed.edge_array().tolist()[:3]]
    return [(queries[0], ctx, 1.0), (equal_content_copy(queries[0]), copied, 1.0),
            (queries[1], copied, 0.0), (queries[2], ctx, 1.0)]


def test_batch_loss_encodes_each_content_once(params, dataset, monkeypatch):
    items = batch_with_equal_content_copies(dataset)
    uses = [sub for query, context, _ in items
            for sub in (query,) + context.positives + context.negatives]
    seen = []
    original = model_module.encode_subgraphs

    def recording(ps, cfg, subs, tape):
        seen.append(list(subs))
        return original(ps, cfg, subs, tape)

    monkeypatch.setattr(model_module, "encode_subgraphs", recording)
    batch_loss(params, SMALL, items, Tape())
    (encoded,) = seen
    contents = {sub.content for sub in uses}
    assert len({id(sub) for sub in uses}) > len(contents)  # the batch holds copies
    assert len(encoded) == len(contents) == len({sub.content for sub in encoded})


def one_row_per_use(subs):
    subs = list(subs)
    return subs, list(range(len(subs)))


def test_content_keyed_batch_loss_equals_per_use_reference(dataset, monkeypatch):
    items = batch_with_equal_content_copies(dataset)
    for cfg, seed in ((SMALL, 0), (ModelConfig.from_dict({**SMALL.to_dict(), "heads": 4}), 1)):
        params = init_params(cfg, seed)
        got_loss, got_grads = batched_loss_and_grads(params, cfg, items)
        with monkeypatch.context() as patch:
            # the reference encodes one row per use of a subgraph
            patch.setattr(model_module, "distinct_contents", one_row_per_use)
            want_loss, want_grads = batched_loss_and_grads(params, cfg, items)
        assert got_loss == want_loss
        assert got_grads.keys() == want_grads.keys()
        for pname, want in want_grads.items():
            gap = np.abs(got_grads[pname] - want).max()
            assert gap <= 1e-12 * np.abs(want).max(), (cfg.heads, pname, gap)


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
