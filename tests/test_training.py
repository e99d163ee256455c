import weakref
from dataclasses import replace

import numpy as np
import pytest

from unilp.errors import ConfigError, DataError
import unilp.evaluation
import unilp.labeling
import unilp.training
from unilp.evaluation import (
    RANDOM_CONTEXT,
    SCORE_CHUNK,
    context_size_sweep,
    evaluate_model,
    hits_at_k,
    score_pairs,
)
from unilp.graphs import (
    Graph,
    LatticeSpec,
    SbmSpec,
    derive_seed_int,
    generate_lattice,
    generate_sbm,
    sample_nonedges,
    split_edges,
)
from unilp.labeling import labeled_subgraph
from unilp.model import MODE_ICL, MODE_NO_CONTEXT, ModelConfig, init_params
from unilp.rng import derive_rng
from unilp.training import (
    LinkDataset,
    TrainConfig,
    TrainRecord,
    TransferResult,
    _epoch_queries,
    build_training_pool,
    eval_context_for,
    finetune,
    pretrain,
    sample_context,
    sample_context_pairs,
    transfer_probe,
)

SMALL_ICL = ModelConfig(
    hidden_dim=8, attention_dim=8, embed_dim=8,
    encoder_layers=1, mlp_layers=2, mlp_hidden=8,
)
SMALL_PLAIN = replace(SMALL_ICL, mode=MODE_NO_CONTEXT)
OVERFIT_CONFIG = ModelConfig(
    hidden_dim=16, attention_dim=16, embed_dim=16,
    encoder_layers=2, mlp_layers=2, mlp_hidden=16, mode=MODE_NO_CONTEXT,
)


def lattice(kind="triangular", rows=5, cols=5):
    return generate_lattice(LatticeSpec(kind=kind, rows=rows, cols=cols, torus=True))


def path_graph(n=4):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@pytest.fixture(scope="module")
def tri_dataset():
    return LinkDataset.from_graph("tri", lattice(), seed=0)


# ---------------------------------------------------------------------------
# query pools and context sampling


def test_training_pool_alternates_and_avoids_edges(tri_dataset):
    g = tri_dataset.observed
    pool = build_training_pool(g, seed=4)
    assert len(pool) == 2 * g.edge_count
    assert [label for _, label in pool] == [1.0, 0.0] * g.edge_count
    edges = g.edge_set()
    positives = [pair for pair, label in pool if label == 1.0]
    negatives = [pair for pair, label in pool if label == 0.0]
    assert set(positives) == edges
    assert not set(negatives) & edges
    assert len(set(negatives)) == len(negatives)


def test_training_pool_deterministic(tri_dataset):
    g = tri_dataset.observed
    assert build_training_pool(g, seed=4) == build_training_pool(g, seed=4)
    assert build_training_pool(g, seed=4) != build_training_pool(g, seed=5)


def test_sample_context_pairs_invariants(tri_dataset):
    g = tri_dataset.observed
    edges = g.edge_set()
    query = tuple(g.edge_array()[0])
    for seed in range(5):
        pos, neg = sample_context_pairs(
            g, 10, 10, seed, exclude=query, forbidden=tri_dataset.full_edges
        )
        assert len(pos) == len(neg) == 10
        assert set(pos) <= edges
        assert query not in pos
        assert query not in neg
        assert not set(neg) & tri_dataset.full_edges
        assert len(set(pos)) == 10 and len(set(neg)) == 10


def test_sample_context_pairs_determinism(tri_dataset):
    g = tri_dataset.observed
    query = tuple(g.edge_array()[3])
    again = [sample_context_pairs(g, 6, 6, 9, exclude=query) for _ in range(2)]
    assert again[0] == again[1]
    other_seed = sample_context_pairs(g, 6, 6, 10, exclude=query)
    assert other_seed != again[0]


def reference_context_pairs(g, n_pos, n_neg, seed, exclude=None, forbidden=()):
    """Context sampling over a rebuilt Python edge list, with the query
    added to the non-edge exclude set: what sample_context_pairs must
    reproduce draw for draw."""
    edges = [tuple(e) for e in g.edge_array().tolist()]
    avoid = set(forbidden)
    if exclude is not None:
        exclude = (min(exclude), max(exclude))
        edges = [e for e in edges if e != exclude]
        avoid.add(exclude)
    picks = derive_rng(seed, "context-pos").choice(len(edges), size=n_pos, replace=False)
    negatives = sample_nonedges(g, n_neg, derive_seed_int(seed, "context-neg"), exclude=avoid)
    return [edges[i] for i in picks], negatives


def test_sample_context_pairs_matches_reference(tri_dataset):
    g = tri_dataset.observed
    edges = [tuple(e) for e in g.edge_array().tolist()]
    nonedges = sample_nonedges(g, 3, seed=1)
    queries = [None, edges[0], edges[-1], edges[7][::-1], nonedges[0], tri_dataset.split.valid_pos[0]]
    for query in queries:
        for forbidden in ((), tri_dataset.full_edges):
            for seed in range(3):
                got = sample_context_pairs(g, 6, 5, seed, exclude=query, forbidden=forbidden)
                assert got == reference_context_pairs(g, 6, 5, seed, query, forbidden), (query, seed)
    # every remaining edge can still be drawn when the query is one
    assert len(sample_context_pairs(g, len(edges) - 1, 1, 0, exclude=edges[4])[0]) == len(edges) - 1


def test_sample_context_pairs_validation(tri_dataset):
    g = tri_dataset.observed
    with pytest.raises(ConfigError):
        sample_context_pairs(g, 0, 0, seed=0)
    with pytest.raises(DataError):
        sample_context_pairs(g, g.edge_count + 1, 1, seed=0)


def test_sample_context_set(tri_dataset):
    ctx = sample_context(tri_dataset, k=7, seed=2)
    assert len(ctx.positives) == len(ctx.negatives) == 7
    assert ctx.size == 14
    edges = tri_dataset.observed.edge_set()
    assert {s.pair for s in ctx.positives} <= edges
    assert not {s.pair for s in ctx.negatives} & tri_dataset.full_edges
    assert sample_context(tri_dataset, k=7, seed=2) == ctx
    assert sample_context(tri_dataset, k=7, seed=3) != ctx


def test_sample_context_rejects_oversized_request():
    ds = LinkDataset.whole_graph("path", path_graph(5))
    with pytest.raises(DataError):
        sample_context(ds, k=ds.observed.edge_count + 1, seed=0)


def test_eval_context_clips_to_graph_capacity():
    ds = LinkDataset.whole_graph("path", path_graph(4))
    ctx = eval_context_for(ds, SMALL_PLAIN, size=10, seed=0)
    assert len(ctx.positives) == 3
    assert len(ctx.negatives) == 3
    assert {s.pair for s in ctx.positives} == {(0, 1), (1, 2), (2, 3)}
    assert {s.pair for s in ctx.negatives} == {(0, 2), (0, 3), (1, 3)}


# ---------------------------------------------------------------------------
# datasets and configuration


def test_linkdataset_memoizes_subgraphs(tri_dataset):
    pair = tuple(tri_dataset.observed.edge_array()[0])
    first = tri_dataset.subgraph(pair, SMALL_ICL)
    assert tri_dataset.subgraph(pair, SMALL_ICL) is first
    # only the extraction knobs key the cache
    assert tri_dataset.subgraph(pair, SMALL_PLAIN) is first
    assert tri_dataset.subgraph(pair, replace(SMALL_ICL, radius=2)) is not first
    assert tri_dataset.subgraph(pair, replace(SMALL_ICL, max_per_hop=2)) is not first


def test_linkdataset_subgraph_cache_keys_the_canonical_pair():
    ds = LinkDataset.from_graph("tri", lattice("triangular", 6, 6), seed=0)
    first = ds.subgraph((3, 5), SMALL_ICL)
    assert ds.subgraph((5, 3), SMALL_ICL) is first
    assert ds.subgraph(np.array([5, 3]), SMALL_ICL) is first
    assert len(ds._subgraphs) == 1


def test_whole_graph_dataset():
    g = lattice("grid", 4, 4)
    ds = LinkDataset.whole_graph("grid", g)
    assert ds.observed is g
    assert ds.full_edges == g.edge_set()
    assert ds.split.valid_pos == () and ds.split.test_pos == ()


def test_train_config_validation():
    for bad in (
        dict(batch_size=0),
        dict(patience=0),
        dict(max_epochs=-1),
        dict(lr=0.0),
        dict(context_k=0),
        dict(eval_context_size=0),
        dict(per_graph_cap=0),
        dict(hits_k=0),
        dict(batch_size=2.5),
        dict(context_k=2.0),
        dict(max_epochs=True),
        dict(seed="1"),
        dict(lr="0.01"),
        dict(lr=True),
        dict(lr=None),
        dict(lr=float("nan")),
        dict(lr=float("inf")),
        dict(lr=-float("inf")),
        dict(lr=np.float64("nan")),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
    assert TrainConfig(batch_size=np.int64(4)).batch_size == 4
    assert TrainConfig(lr=np.float32(0.5)).lr == 0.5
    assert TrainConfig(lr=1).lr == 1


def test_epoch_queries_round_robin():
    pools = (
        (((0, 1), 1.0), ((0, 2), 0.0), ((1, 2), 1.0)),
        (((5, 6), 1.0),),
    )
    queries = _epoch_queries(pools, cap=10, seed=0, epoch=1)
    assert len(queries) == 4
    assert sorted(q[0] for q in queries[:2]) == [0, 1]
    assert [q[0] for q in queries[2:]] == [0, 0]
    assert {(pair, label) for _, pair, label in queries} == {
        ((0, 1), 1.0), ((0, 2), 0.0), ((1, 2), 1.0), ((5, 6), 1.0),
    }
    capped = _epoch_queries(pools, cap=2, seed=0, epoch=1)
    assert len(capped) == 3
    assert _epoch_queries(pools, 10, 0, 1) == queries
    assert _epoch_queries(pools, 10, 0, 2) != queries


# ---------------------------------------------------------------------------
# pretraining


def test_pretrain_requires_datasets(tri_dataset):
    tc = TrainConfig(max_epochs=1)
    with pytest.raises(ConfigError):
        pretrain([], [tri_dataset], SMALL_PLAIN, tc)
    with pytest.raises(ConfigError):
        pretrain([tri_dataset], [], SMALL_PLAIN, tc)


def test_pretrain_rejects_validation_without_holdout():
    g = lattice("grid", 4, 4)
    train = LinkDataset.from_graph("grid", g, seed=0)
    whole = LinkDataset.whole_graph("whole", g)
    tc = TrainConfig(max_epochs=1, hits_k=2, eval_context_size=4, context_k=2)
    with pytest.raises(DataError):
        pretrain([train], [whole], SMALL_PLAIN, tc)


def test_pretrain_zero_epochs_returns_initial_params(tri_dataset):
    tc = TrainConfig(seed=3, max_epochs=0, hits_k=5, eval_context_size=8, context_k=4)
    params, record = pretrain([tri_dataset], [tri_dataset], SMALL_PLAIN, tc)
    init = init_params(SMALL_PLAIN, derive_seed_int(3, "init"))
    assert set(params) == set(init)
    for key in params:
        assert np.array_equal(params[key].values, init[key].values)
    assert record.epochs == [] and not record.diverged


def test_pretrain_is_deterministic_per_seed():
    def run(seed):
        ds = LinkDataset.from_graph("tri", lattice(rows=4, cols=4), seed=0)
        tc = TrainConfig(
            seed=seed, max_epochs=2, patience=2, batch_size=4, per_graph_cap=8,
            context_k=2, eval_context_size=3, hits_k=2,
        )
        return pretrain([ds], [ds], SMALL_ICL, tc)

    params_a, record_a = run(seed=0)
    params_b, record_b = run(seed=0)
    assert record_a.epochs == record_b.epochs
    for key in params_a:
        assert np.array_equal(params_a[key].values, params_b[key].values)
    params_c, _ = run(seed=1)
    assert any(
        not np.array_equal(params_a[key].values, params_c[key].values) for key in params_a
    )


def test_pretrain_on_warm_datasets_matches_fresh_ones():
    split = LinkDataset.from_graph("tri", lattice(rows=5, cols=5), seed=1).split
    tc = TrainConfig(seed=2, max_epochs=2, patience=2, batch_size=6, per_graph_cap=30,
                     context_k=3, eval_context_size=5, hits_k=2)
    warm = LinkDataset(name="tri", split=split)
    pretrain([warm], [warm], SMALL_ICL, replace(tc, seed=7))  # fills the caches
    assert warm._subgraphs and warm.observed._nonedge_pools
    fresh = LinkDataset(name="tri", split=split)
    params_warm, record_warm = pretrain([warm], [warm], SMALL_ICL, tc)
    params_fresh, record_fresh = pretrain([fresh], [fresh], SMALL_ICL, tc)
    assert record_warm.epochs == record_fresh.epochs
    for key in params_fresh:
        assert np.array_equal(params_warm[key].values, params_fresh[key].values), key


HOP_CAPPED = replace(SMALL_ICL, max_per_hop=2)


def test_hop_cap_is_shared_by_training_validation_eval_and_workers(monkeypatch):
    assert ModelConfig.from_dict(HOP_CAPPED.to_dict()) == HOP_CAPPED
    legacy = {k: v for k, v in SMALL_ICL.to_dict().items() if k != "max_per_hop"}
    assert ModelConfig.from_dict(legacy) == SMALL_ICL  # checkpoints without the fields load
    split = split_edges(generate_sbm(SbmSpec(block_sizes=(12, 12), p_in=0.5, p_out=0.1), seed=1),
                        (0.7, 0.1, 0.2), seed=0)
    seen = {}  # dataset name -> {pair: (graph, extracted subgraph)}
    original = LinkDataset.subgraph

    def spy(self, pair, *args, **kwargs):
        sub = original(self, pair, *args, **kwargs)
        seen.setdefault(self.name, {})[tuple(pair)] = (self.observed, sub)
        return sub

    monkeypatch.setattr(LinkDataset, "subgraph", spy)
    train_ds, val_ds, eval_ds, sample_ds, sweep_ds = (
        LinkDataset(name=name, split=split) for name in ("train", "val", "eval", "sample", "sweep")
    )
    tc = TrainConfig(seed=0, max_epochs=1, batch_size=8, per_graph_cap=24, context_k=3,
                     eval_context_size=6, hits_k=2)
    params, _ = pretrain([train_ds], [val_ds], HOP_CAPPED, tc)
    evaluate_model(params, HOP_CAPPED, eval_ds, context_size=8, seeds=(0,), hits_k=2)
    evaluate_model(params, HOP_CAPPED, eval_ds, context_size=8, seeds=(0,), hits_k=2,
                   perturb=RANDOM_CONTEXT)
    sample_context(sample_ds, 5, seed=7, config=HOP_CAPPED)
    context_size_sweep(params, HOP_CAPPED, sweep_ds, sizes=(2, 6), seeds=(0,), hits_k=2)
    assert set(seen) == {"train", "val", "eval", "random-context", "sample", "sweep"}
    capped_differs = False
    for name, subs in seen.items():
        for pair, (graph, sub) in subs.items():
            assert sub == labeled_subgraph(graph, pair, 1, max_per_hop=2), (name, pair)
            capped_differs |= sub != labeled_subgraph(graph, pair, 1)
    assert capped_differs  # the cap bites on this graph
    ctx = eval_context_for(eval_ds, HOP_CAPPED, 6, seed=3)
    pairs = list(split.test_pos) + list(split.test_neg) + list(split.observed)
    assert len(pairs) > SCORE_CHUNK  # so that jobs=2 starts two workers
    serial = score_pairs(params, HOP_CAPPED, eval_ds, pairs, ctx, jobs=1)
    started = []
    real_pool = unilp.evaluation.ProcessPoolExecutor

    def pool_spy(max_workers, **kwargs):
        started.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(unilp.evaluation, "ProcessPoolExecutor", pool_spy)
    monkeypatch.setattr(unilp.evaluation, "_usable_cpus", lambda: 2)
    parallel = score_pairs(params, HOP_CAPPED, eval_ds, pairs, ctx, jobs=2)
    assert started == [2] and parallel.tobytes() == serial.tobytes()
    uncapped = replace(HOP_CAPPED, max_per_hop=None)
    assert not np.array_equal(score_pairs(params, uncapped, eval_ds, pairs, ctx), serial)


def test_validation_contexts_follow_datasets_that_share_a_name(monkeypatch):
    grid = LinkDataset.from_graph("x", lattice("grid", 6, 6), seed=0)
    tri = LinkDataset.from_graph("x", lattice("triangular", 6, 6), seed=0)
    tc = TrainConfig(seed=0, max_epochs=1, batch_size=16, per_graph_cap=16, context_k=2,
                     eval_context_size=5, hits_k=2)
    validated = []
    original = unilp.evaluation.score_pairs

    def spy(params, config, dataset, pairs, context=None, jobs=1):
        validated.append((dataset, context))
        return original(params, config, dataset, pairs, context, jobs)

    monkeypatch.setattr(unilp.evaluation, "score_pairs", spy)
    pretrain([grid], [grid, tri], SMALL_ICL, tc)
    assert [ds for ds, _ in validated] == [grid, tri]
    for ds, context in validated:
        assert context == eval_context_for(ds, SMALL_ICL, 5, derive_seed_int(0, "val-ctx", "x"))


def test_pretrain_early_stopping_tracks_best_epoch(tri_dataset):
    tc = TrainConfig(
        seed=0, lr=0.01, max_epochs=40, patience=2, batch_size=10,
        per_graph_cap=60, context_k=4, eval_context_size=8, hits_k=5,
    )
    params, record = pretrain([tri_dataset], [tri_dataset], SMALL_PLAIN, tc)
    metrics = [m for _, _, m in record.epochs]
    assert record.best_metric == max(metrics)
    assert record.best_epoch == metrics.index(max(metrics)) + 1
    assert record.stopped_epoch < tc.max_epochs
    assert record.stopped_epoch == record.best_epoch + tc.patience

    # the returned checkpoint is the one that achieved best_metric
    pos, neg = tri_dataset.split.valid_pos, tri_dataset.split.valid_neg
    scores = score_pairs(params, SMALL_PLAIN, tri_dataset, list(pos) + list(neg))
    k_eff = min(tc.hits_k, len(neg))
    assert hits_at_k(scores[: len(pos)], scores[len(pos):], k_eff) == record.best_metric


def test_pretrain_divergence_aborts_with_finite_params(tri_dataset):
    tc = TrainConfig(
        seed=0, optimizer="sgd", lr=1e100, max_epochs=5, patience=3,
        batch_size=10, per_graph_cap=20, context_k=4, eval_context_size=8, hits_k=5,
    )
    params, record = pretrain([tri_dataset], [tri_dataset], SMALL_PLAIN, tc)
    assert record.diverged
    assert record.stopped_epoch == 1
    assert record.epochs == []
    init = init_params(SMALL_PLAIN, derive_seed_int(0, "init"))
    for key in params:
        assert np.isfinite(params[key].values).all()
        assert np.array_equal(params[key].values, init[key].values)


def test_train_record_csv_round_trip(tmp_path):
    record = TrainRecord(epochs=[(1, 0.75, 0.25), (2, 0.5, 0.375)])
    out = tmp_path / "trace.csv"
    record.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,val_metric"
    assert lines[1] == "1,0.75,0.25"
    assert lines[2] == "2,0.5,0.375"


# ---------------------------------------------------------------------------
# finetuning


def test_finetune_zero_steps_is_identity(tri_dataset):
    start = init_params(OVERFIT_CONFIG, seed=0)
    tuned, losses = finetune(start, tri_dataset, n_links=5, steps=0,
                             model_config=OVERFIT_CONFIG, train_config=TrainConfig())
    assert losses == []
    assert set(tuned) == set(start)
    for key in start:
        assert tuned[key] is not start[key]
        assert np.array_equal(tuned[key].values, start[key].values)


def test_finetune_does_not_mutate_input_params(tri_dataset):
    tc = TrainConfig(seed=0, lr=0.01, batch_size=10, context_k=4,
                     eval_context_size=8, hits_k=5)
    start = init_params(OVERFIT_CONFIG, seed=0)
    frozen = {key: start[key].values.copy() for key in start}
    tuned, losses = finetune(start, tri_dataset, n_links=5, steps=10,
                             model_config=OVERFIT_CONFIG, train_config=tc)
    assert len(losses) == 10
    for key in start:
        assert np.array_equal(start[key].values, frozen[key])
    assert any(not np.array_equal(tuned[key].values, frozen[key]) for key in start)


def test_finetune_deterministic_and_seed_override(tri_dataset):
    tc = TrainConfig(seed=0, lr=0.01, batch_size=10, context_k=4,
                     eval_context_size=8, hits_k=5)
    start = init_params(OVERFIT_CONFIG, seed=0)
    _, losses_a = finetune(start, tri_dataset, 5, 30, OVERFIT_CONFIG, tc)
    _, losses_b = finetune(start, tri_dataset, 5, 30, OVERFIT_CONFIG, tc)
    _, losses_c = finetune(start, tri_dataset, 5, 30, OVERFIT_CONFIG, tc, seed=7)
    assert losses_a == losses_b
    assert losses_a != losses_c


def test_finetune_overfits_small_pool(tri_dataset):
    tc = TrainConfig(seed=0, lr=0.01, batch_size=10, context_k=4,
                     eval_context_size=8, hits_k=5)
    start = init_params(OVERFIT_CONFIG, seed=0)
    _, losses = finetune(start, tri_dataset, 5, 200, OVERFIT_CONFIG, tc)
    assert losses[0] > 0.6
    assert losses[-1] < 0.05


def test_finetune_icl_loss_decreases(tri_dataset):
    # contexts are resampled at every step, so individual losses are noisy;
    # compare windows instead of endpoints
    config = replace(OVERFIT_CONFIG, mode=MODE_ICL)
    tc = TrainConfig(seed=0, lr=0.01, batch_size=10, context_k=8,
                     eval_context_size=8, hits_k=5)
    start = init_params(config, seed=0)
    _, losses = finetune(start, tri_dataset, 5, 200, config, tc)
    assert np.mean(losses[:30]) > 0.6
    assert np.mean(losses[-30:]) < 0.45


def test_finetune_validation(tri_dataset):
    start = init_params(SMALL_PLAIN, seed=0)
    tc = TrainConfig()
    with pytest.raises(ConfigError):
        finetune(start, tri_dataset, 0, 1, SMALL_PLAIN, tc)
    with pytest.raises(ConfigError):
        finetune(start, tri_dataset, 5, -1, SMALL_PLAIN, tc)
    with pytest.raises(DataError):
        finetune(start, tri_dataset, tri_dataset.observed.edge_count + 1, 1, SMALL_PLAIN, tc)


# ---------------------------------------------------------------------------
# lifetime of the previous batch's autodiff graph (the heap trap in CHANGES.md)


def test_previous_graph_lives_until_the_next_forward_pass(monkeypatch, tri_dataset):
    """The update step keeps a batch's graph alive until the next forward
    pass has returned, through validation and epoch ends, and frees it
    before the next optimizer step; freed earlier or held longer, it costs
    warm pretraining epochs page faults."""
    refs = []  # a weak reference to each batch's loss values, in order
    checks = {"forward": 0, "step": 0}
    original_loss, original_step = unilp.training.batch_loss, unilp.training.opt_step

    def loss_spy(*args):
        if refs:  # the previous graph is still alive when a forward pass starts
            assert refs[-1]() is not None
            checks["forward"] += 1
        loss = original_loss(*args)
        refs.append(weakref.ref(loss.values))
        return loss

    def step_spy(*args):
        if len(refs) > 1:  # ... and freed once the next forward pass has returned
            assert refs[-2]() is None
            checks["step"] += 1
        return original_step(*args)

    monkeypatch.setattr(unilp.training, "batch_loss", loss_spy)
    monkeypatch.setattr(unilp.training, "opt_step", step_spy)
    tc = TrainConfig(seed=0, max_epochs=2, patience=2, batch_size=8, per_graph_cap=24,
                     context_k=3, eval_context_size=6, hits_k=2)
    _, record = pretrain([tri_dataset], [tri_dataset], SMALL_ICL, tc)
    # both epochs ran, so the hold crossed a validation pass and an epoch end
    assert len(record.epochs) == 2 and len(refs) == 2 * 3
    assert checks == {"forward": 5, "step": 5}
    refs.clear()
    checks.update(forward=0, step=0)
    _, losses = finetune(init_params(SMALL_ICL, seed=0), tri_dataset, 5, 4, SMALL_ICL, tc)
    assert len(losses) == 4 and checks == {"forward": 3, "step": 3}


# ---------------------------------------------------------------------------
# transfer probe


def test_transfer_result_delta():
    assert TransferResult(seed=0, baseline_hits=0.25, augmented_hits=0.75).delta == 0.5


def test_transfer_probe_requires_no_context():
    with pytest.raises(ConfigError):
        transfer_probe(lattice("grid", 6, 6), path_graph(), SMALL_ICL, TrainConfig())


def test_transfer_probe_rejects_an_empty_test_slice_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("pretrain ran")

    monkeypatch.setattr(unilp.training, "pretrain", no_training)
    # a 3x4 grid has 17 edges: 0.05 of them rounds down to no test pair
    with pytest.raises(DataError, match="empty test slice"):
        transfer_probe(generate_lattice(LatticeSpec(kind="grid", rows=3, cols=4)), path_graph(),
                       SMALL_PLAIN, TrainConfig(), fractions=(0.85, 0.1, 0.05))


def test_transfer_probe_empty_extra_changes_nothing():
    target = lattice("grid", 6, 6)
    extra = Graph.from_edges(8, [])
    tc = TrainConfig(
        seed=1, batch_size=16, max_epochs=3, patience=3, per_graph_cap=40,
        context_k=4, eval_context_size=8, hits_k=5,
    )
    result = transfer_probe(target, extra, SMALL_PLAIN, tc, seed=5)
    assert result.seed == 5
    assert result.baseline_hits == result.augmented_hits
    assert result.delta == 0.0


# ---------------------------------------------------------------------------
# content keys on the warm path


def test_pretrain_builds_each_content_key_once(monkeypatch):
    """A subgraph's packed content (its key and its encoder input) is built
    when a batch or a validation pass first extracts it, and kept on the
    cached object: an epoch that uses only subgraphs of the dataset's cache
    that earlier batches used packs none, and neither does a validation
    pass over the pairs an earlier one scored. Contents are counted per
    phase, batches and validation apart, so validation's never pass for a
    later epoch's."""
    ds = LinkDataset.from_graph("tri", lattice(rows=4, cols=4), seed=0)
    phase = [("batches", 1)]
    built, used = {}, {}  # contents packed per phase; the subgraph objects batches used per epoch, by id

    original_pack = unilp.labeling.pack_content

    def counting_pack(labels, adj):
        built[phase[0]] = built.get(phase[0], 0) + 1
        return original_pack(labels, adj)

    original_loss, original_validation = unilp.training.batch_loss, unilp.training._merged_validation

    def loss_spy(params, config, items, tape):
        for query, context, _ in items:
            for sub in (query,) + context.positives + context.negatives:
                used.setdefault(phase[0][1], {})[id(sub)] = sub
        return original_loss(params, config, items, tape)

    def validation_spy(*args):
        epoch = phase[0][1]
        phase[0] = ("validation", epoch)
        try:
            return original_validation(*args)
        finally:
            phase[0] = ("batches", epoch + 1)

    monkeypatch.setattr(unilp.labeling, "pack_content", counting_pack)
    monkeypatch.setattr(unilp.training, "batch_loss", loss_spy)
    monkeypatch.setattr(unilp.training, "_merged_validation", validation_spy)
    # every query in both epochs, and contexts of every other observed edge
    # and half the free pairs: the first epoch uses every subgraph the
    # second one does
    tc = TrainConfig(seed=0, max_epochs=2, patience=2, batch_size=8, per_graph_cap=100,
                     context_k=ds.observed.edge_count - 1, eval_context_size=4, hits_k=2)
    _, record = pretrain([ds], [ds], SMALL_ICL, tc)
    assert len(record.epochs) == 2
    assert built[("batches", 1)] == len(used[1])
    assert used[2].keys() <= used[1].keys()
    assert ("batches", 2) not in built
    # scoring encodes its queries from their contents too: the first
    # validation builds the contents of the pairs no batch used, the second
    # one none
    assert built[("validation", 1)] > 0
    assert ("validation", 2) not in built
