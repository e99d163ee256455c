import itertools
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from unilp.errors import ConfigError, DataError, NumericError
from unilp.evaluation import (
    FLIP_LABEL,
    RANDOM_CONTEXT,
    EvalReport,
    PatternStats,
    context_size_sweep,
    evaluate_model,
    hits_at_k,
    pattern_stats,
    perturb_context,
    score_pairs,
    spearman,
    verify_connectivity_pattern,
)
from unilp.graphs import Graph, LatticeSpec, derive_seed_int, generate_lattice
from unilp.model import MODE_NO_CONTEXT, ContextSet, ModelConfig, init_params
from unilp.training import LinkDataset, build_context, sample_context

SMALL_ICL = ModelConfig(
    hidden_dim=8, attention_dim=8, embed_dim=8,
    encoder_layers=1, mlp_layers=2, mlp_hidden=8,
)
SMALL_PLAIN = ModelConfig(
    hidden_dim=8, attention_dim=8, embed_dim=8,
    encoder_layers=1, mlp_layers=2, mlp_hidden=8, mode=MODE_NO_CONTEXT,
)


def lattice(kind, rows, cols, torus=True):
    return generate_lattice(LatticeSpec(kind=kind, rows=rows, cols=cols, torus=torus))


@pytest.fixture(scope="module")
def tri_dataset():
    return LinkDataset.from_graph("tri", lattice("triangular", 6, 6), seed=0)


# ---------------------------------------------------------------------------
# Hits@K


def test_hits_at_k_worked_example():
    pos = [0.9, 0.4, 0.8]
    neg = [0.7, 0.5, 0.3, 0.1]
    assert hits_at_k(pos, neg, 1) == pytest.approx(2 / 3)
    assert hits_at_k(pos, neg, 2) == pytest.approx(2 / 3)
    assert hits_at_k(pos, neg, 4) == 1.0
    # ties with the threshold never count: ranking must be strict
    assert hits_at_k([0.5], [0.5, 0.2], 1) == 0.0
    assert hits_at_k([0.5], [0.5, 0.2], 2) == 1.0


def test_hits_at_k_against_counting_oracle():
    # independent formulation: a positive is a hit iff fewer than k negatives
    # score at or above it
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n_pos = int(rng.integers(1, 7))
        n_neg = int(rng.integers(1, 9))
        if trial % 2:
            pos = rng.integers(0, 5, size=n_pos) / 4.0  # force ties
            neg = rng.integers(0, 5, size=n_neg) / 4.0
        else:
            pos = rng.standard_normal(n_pos)
            neg = rng.standard_normal(n_neg)
        k = int(rng.integers(1, n_neg + 1))
        expected = float(np.mean([(neg >= p).sum() < k for p in pos]))
        assert hits_at_k(pos, neg, k) == expected


def test_hits_at_k_invariant_under_monotone_transforms():
    rng = np.random.default_rng(11)
    for _ in range(200):
        pos = rng.standard_normal(int(rng.integers(1, 6)))
        neg = rng.standard_normal(int(rng.integers(2, 8)))
        k = int(rng.integers(1, neg.size + 1))
        base = hits_at_k(pos, neg, k)
        for f in (lambda a: 3.0 * a + 1.0, np.exp, np.tanh):
            assert hits_at_k(f(pos), f(neg), k) == base


def test_hits_at_k_validation():
    with pytest.raises(ConfigError):
        hits_at_k([], [0.1], 1)
    with pytest.raises(ConfigError):
        hits_at_k([0.5], [0.1, 0.2], 0)
    with pytest.raises(ConfigError):
        hits_at_k([0.5], [0.1, 0.2], 3)
    with pytest.raises(NumericError):
        hits_at_k([float("nan")], [0.1], 1)
    with pytest.raises(NumericError):
        hits_at_k([0.5], [float("inf")], 1)


# ---------------------------------------------------------------------------
# connectivity-pattern verification


def test_pattern_triangle():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    result = verify_connectivity_pattern(g)
    assert result[2] == Fraction(1, 1)
    assert result[3] is None  # a 3-edge simple path needs four distinct nodes


def test_pattern_four_cycle():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    result = verify_connectivity_pattern(g)
    assert result[2] == Fraction(0, 1)  # only the two unlinked diagonals are A2
    assert result[3] == Fraction(1, 1)  # only the four edges are A3
    overridden = verify_connectivity_pattern(g, link_set={(0, 2)})
    assert overridden[2] == Fraction(1, 2)
    assert overridden[3] == Fraction(0, 1)


def test_pattern_grid_torus_exact():
    stats = pattern_stats(lattice("grid", 8, 8))
    assert stats.p_two == Fraction(0, 1)
    assert stats.p_three == Fraction(1, 4)
    assert stats.n_two == 256
    assert stats.n_three == 512
    assert stats.n_pairs == 64 * 63 // 2


def test_pattern_triangular_torus_exact():
    stats = pattern_stats(lattice("triangular", 8, 8))
    assert stats.p_two == Fraction(1, 3)
    assert stats.p_three == Fraction(1, 6)
    assert stats.n_two == 576
    assert stats.n_three == 1152


def test_pattern_constants_stable_across_torus_sizes():
    for rows, cols in ((7, 7), (9, 9), (7, 9)):
        result = verify_connectivity_pattern(lattice("grid", rows, cols))
        assert result[2] == Fraction(0, 1)
        assert result[3] == Fraction(1, 4)
    # below 7 per side the wrap-around shortcuts distort the rates
    small = verify_connectivity_pattern(lattice("grid", 6, 6))
    assert small[3] != Fraction(1, 4)


def test_pattern_anchors_match_full_enumeration_on_transitive_graph():
    g = lattice("grid", 8, 8)
    anchored = verify_connectivity_pattern(g, anchors=[0])
    assert anchored[2] == Fraction(0, 1)
    assert anchored[3] == Fraction(1, 4)
    with pytest.raises(ConfigError):
        verify_connectivity_pattern(g, anchors=[64])


def test_pattern_enumeration_guard():
    g = Graph.from_edges(400, [(0, 1)])
    with pytest.raises(DataError):
        verify_connectivity_pattern(g)
    assert verify_connectivity_pattern(g, anchors=[0])[2] is None


def test_pattern_stats_json(tmp_path):
    stats = pattern_stats(lattice("grid", 8, 8))
    doc = stats.to_json_dict()
    assert doc == {
        "p_A2": [0, 1],
        "p_A3": [1, 4],
        "counts": {"A2": 256, "A3": 512, "pairs": 2016},
    }
    out = tmp_path / "pattern.json"
    stats.save(out)
    assert json.loads(out.read_text()) == doc
    empty = PatternStats()
    assert empty.to_json_dict()["p_A2"] is None


# ---------------------------------------------------------------------------
# context perturbations


def test_flip_label_is_an_involution(tri_dataset):
    ctx = sample_context(tri_dataset, k=3, seed=0)
    flipped = perturb_context(ctx, FLIP_LABEL)
    assert flipped.positives == ctx.negatives
    assert flipped.negatives == ctx.positives
    assert perturb_context(flipped, FLIP_LABEL) == ctx


def test_random_context_preserves_shape(tri_dataset):
    ctx = sample_context(tri_dataset, k=3, seed=0)
    randomized = perturb_context(ctx, RANDOM_CONTEXT, seed=4)
    assert len(randomized.positives) == 3
    assert len(randomized.negatives) == 3
    assert all(s.radius == 1 for s in randomized.positives + randomized.negatives)
    assert perturb_context(ctx, RANDOM_CONTEXT, seed=4) == randomized
    assert perturb_context(ctx, RANDOM_CONTEXT, seed=5) != randomized
    # members are extracted as the given config says, not as the context was
    wide = perturb_context(ctx, RANDOM_CONTEXT, seed=4, config=replace(SMALL_ICL, radius=2))
    assert all(s.radius == 2 for s in wide.positives + wide.negatives)


def test_perturb_unknown_kind(tri_dataset):
    ctx = sample_context(tri_dataset, k=2, seed=0)
    with pytest.raises(ConfigError):
        perturb_context(ctx, "dropout")


# ---------------------------------------------------------------------------
# scoring


def test_score_pairs_parallel_matches_serial(tri_dataset):
    params = init_params(SMALL_ICL, seed=0)
    ctx = sample_context(tri_dataset, k=4, seed=1)
    pairs = list(itertools.combinations(range(12), 2))  # 66 pairs -> two chunks
    serial = score_pairs(params, SMALL_ICL, tri_dataset, pairs, ctx, jobs=1)
    parallel = score_pairs(params, SMALL_ICL, tri_dataset, pairs, ctx, jobs=2)
    assert np.array_equal(serial, parallel)
    assert np.isfinite(serial).all()
    assert ((serial > 0) & (serial < 1)).all()


def test_score_pairs_is_chunk_independent_and_records_no_graph(tri_dataset, monkeypatch):
    import unilp.evaluation as evaluation

    tapes = []

    class RecordingTape(evaluation.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(evaluation, "Tape", RecordingTape)
    # four heads of width 12, as in the criterion-5 config
    cfg = ModelConfig(hidden_dim=48, attention_dim=48, embed_dim=48, encoder_layers=2,
                      mlp_layers=2, mlp_hidden=48, heads=4)
    params = init_params(cfg, seed=2)
    ctx = sample_context(tri_dataset, k=10, seed=3)
    pairs = list(itertools.combinations(range(36), 2))[:70]  # chunks of 64 and 6
    scores = score_pairs(params, cfg, tri_dataset, pairs, ctx)
    for i in (0, 17, 63, 64, 69):
        assert score_pairs(params, cfg, tri_dataset, [pairs[i]], ctx)[0] == scores[i], i
    assert np.array_equal(score_pairs(params, cfg, tri_dataset, pairs[::-1], ctx), scores[::-1])
    plain = init_params(SMALL_PLAIN, seed=0)
    score_pairs(plain, SMALL_PLAIN, tri_dataset, pairs, None)
    assert tapes and all(not tape._nodes for tape in tapes)
    for name, t in list(params.items()) + list(plain.items()):
        assert t.grad is None, name


def test_score_pairs_over_several_key_tiles_matches_pairs_alone(tri_dataset):
    import unilp.autodiff as autodiff
    from unilp.evaluation import SCORE_CHUNK

    cfg = ModelConfig(hidden_dim=48, attention_dim=48, embed_dim=48, encoder_layers=2,
                      mlp_layers=2, mlp_hidden=48, heads=4)
    params = init_params(cfg, seed=4)
    ctx = sample_context(tri_dataset, k=40, seed=5)
    per_tile = autodiff.KEY_SCORES_TILE // (ctx.size * cfg.attention_dim)
    # a full chunk spans several tiles, the last one partly filled
    assert 1 <= per_tile < SCORE_CHUNK and SCORE_CHUNK % per_tile
    pairs = list(itertools.combinations(range(36), 2))[:SCORE_CHUNK + 5]
    scores = score_pairs(params, cfg, tri_dataset, pairs, ctx)
    alone = [score_pairs(params, cfg, tri_dataset, [pair], ctx)[0] for pair in pairs]
    assert scores.tobytes() == np.array(alone).tobytes()


def test_score_pairs_encodes_and_scores_each_distinct_query_content_once(monkeypatch):
    import unilp.evaluation as evaluation
    from unilp.evaluation import SCORE_CHUNK

    ds = LinkDataset.from_graph("grid", lattice("grid", 10, 10), seed=0)
    params = init_params(SMALL_ICL, seed=1)
    ctx = sample_context(ds, k=6, seed=2)
    pairs = list(ds.split.test_pos) + list(ds.split.test_neg)
    encoded, scored = [], []

    def encode_spy(params, config, subs, tape):
        encoded.append(list(subs))
        return original_encode(params, config, subs, tape)

    def predict_spy(params, config, h_query, h_context, n_pos, tape):
        scored.append(h_query.shape[0])
        return original_predict(params, config, h_query, h_context, n_pos, tape)

    original_encode, original_predict = evaluation.encode_subgraphs, evaluation.predict_batch
    monkeypatch.setattr(evaluation, "encode_subgraphs", encode_spy)
    monkeypatch.setattr(evaluation, "predict_batch", predict_spy)
    scores = score_pairs(params, SMALL_ICL, ds, pairs, ctx)
    chunks = [pairs[lo:lo + SCORE_CHUNK] for lo in range(0, len(pairs), SCORE_CHUNK)]
    # the first encoding is the context's
    assert len(chunks) == 2 and len(encoded) == 3 and len(encoded[0]) == ctx.size
    for chunk, subs, rows in zip(chunks, encoded[1:], scored):
        contents = {ds.subgraph(pair, SMALL_ICL).content for pair in chunk}
        assert len(subs) == rows == len(contents) < len(chunk)
        assert {sub.content for sub in subs} == contents
    alone = [score_pairs(params, SMALL_ICL, ds, [pair], ctx)[0] for pair in pairs]
    assert scores.tobytes() == np.array(alone).tobytes()


def test_score_pairs_with_two_jobs_equals_one_job_bitwise_at_three_layers():
    from unilp.evaluation import SCORE_CHUNK

    cfg = ModelConfig(hidden_dim=16, attention_dim=16, embed_dim=16, encoder_layers=3,
                      mlp_layers=2, mlp_hidden=16, heads=2)
    ds = LinkDataset.from_graph("tri", lattice("triangular", 10, 10), seed=1)
    params = init_params(cfg, seed=2)
    ctx = sample_context(ds, k=6, seed=3)
    pairs = list(ds.split.test_pos) + list(ds.split.test_neg) + list(ds.split.observed)[:80]
    assert len(pairs) > 2 * SCORE_CHUNK  # three chunks or more over two workers
    serial = score_pairs(params, cfg, ds, pairs, ctx, jobs=1)
    assert score_pairs(params, cfg, ds, pairs, ctx, jobs=2).tobytes() == serial.tobytes()


def test_score_pairs_canonicalizes_and_validates(tri_dataset):
    params = init_params(SMALL_PLAIN, seed=0)
    fwd = score_pairs(params, SMALL_PLAIN, tri_dataset, [(0, 1), (2, 5)])
    rev = score_pairs(params, SMALL_PLAIN, tri_dataset, [(1, 0), (5, 2)])
    assert np.array_equal(fwd, rev)
    assert score_pairs(params, SMALL_PLAIN, tri_dataset, []).shape == (0,)
    with pytest.raises(ConfigError):
        score_pairs(params, SMALL_PLAIN, tri_dataset, [(0, 1)], jobs=0)
    icl_params = init_params(SMALL_ICL, seed=0)
    with pytest.raises(ConfigError):
        score_pairs(icl_params, SMALL_ICL, tri_dataset, [(0, 1)], context=None)


def test_score_pairs_no_context_ignores_context(tri_dataset):
    params = init_params(SMALL_PLAIN, seed=0)
    ctx = sample_context(tri_dataset, k=3, seed=2)
    with_ctx = score_pairs(params, SMALL_PLAIN, tri_dataset, [(0, 1), (0, 7)], ctx)
    without = score_pairs(params, SMALL_PLAIN, tri_dataset, [(0, 1), (0, 7)])
    assert np.array_equal(with_ctx, without)


# ---------------------------------------------------------------------------
# reports


def test_eval_report_accumulates_and_summarizes():
    report = EvalReport(experiment="demo")
    report.add("g", "icl", 10, 0.5, None, 0, 0, "hits@5", 0.5)
    report.add("g", "icl", 10, 0.5, None, 1, 1, "hits@5", 0.75)
    report.add("g", "icl", 10, 0.5, FLIP_LABEL, 0, 0, "auc", 0.9)
    assert report.values("hits@5") == [0.5, 0.75]
    summary = report.summary()
    assert summary["hits@5"]["mean"] == pytest.approx(0.625)
    assert summary["hits@5"]["std"] == pytest.approx(np.std([0.5, 0.75], ddof=1))
    assert summary["hits@5"]["n"] == 2
    assert summary["auc"] == {"mean": 0.9, "std": 0.0, "n": 1}


def test_eval_report_files(tmp_path):
    report = EvalReport(experiment="demo", config={"hits_k": 5})
    report.add("g", "icl", 10, 0.5, None, 0, 0, "hits@5", 0.5)
    report.add("g", "icl", 10, 0.5, FLIP_LABEL, 3, 1, "hits@5", 0.25)
    text = report.to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "experiment,dataset,mode,context_size,ratio,perturb,seed,run,metric,value"
    assert lines[1] == "demo,g,icl,10,0.5,,0,0,hits@5,0.5"
    assert lines[2] == "demo,g,icl,10,0.5,flip_label,3,1,hits@5,0.25"
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    report.save_csv(csv_path)
    report.save_json(json_path)
    assert csv_path.read_text() == text
    doc = json.loads(json_path.read_text())
    assert doc["experiment"] == "demo"
    assert doc["config"] == {"hits_k": 5}
    assert doc["summary"]["hits@5"]["n"] == 2
    assert doc["rows"][1]["perturb"] == "flip_label"


# ---------------------------------------------------------------------------
# evaluate_model


def test_evaluate_model_no_context(tri_dataset):
    params = init_params(SMALL_PLAIN, seed=0)
    k_eff = min(50, len(tri_dataset.split.test_neg))
    report = evaluate_model(params, SMALL_PLAIN, tri_dataset, context_size=10, seeds=(0, 1))
    assert len(report.rows) == 2
    assert {r["metric"] for r in report.rows} == {f"hits@{k_eff}"}
    assert [r["run"] for r in report.rows] == [0, 1]
    assert [r["seed"] for r in report.rows] == [0, 1]
    assert report.rows[0]["mode"] == MODE_NO_CONTEXT
    assert report.rows[0]["perturb"] == ""
    # no-context scoring is context-free, so both runs agree exactly
    assert report.rows[0]["value"] == report.rows[1]["value"]
    again = evaluate_model(params, SMALL_PLAIN, tri_dataset, context_size=10, seeds=(0, 1))
    assert again.rows == report.rows


def test_evaluate_model_icl_and_perturbations(tri_dataset):
    params = init_params(SMALL_ICL, seed=0)
    base = evaluate_model(params, SMALL_ICL, tri_dataset, context_size=6, seeds=(0,), hits_k=5)
    assert base.rows[0]["metric"] == "hits@5"
    assert base.rows == evaluate_model(
        params, SMALL_ICL, tri_dataset, context_size=6, seeds=(0,), hits_k=5
    ).rows
    flipped = evaluate_model(
        params, SMALL_ICL, tri_dataset, context_size=6, seeds=(0,), hits_k=5,
        perturb=FLIP_LABEL,
    )
    assert flipped.rows[0]["perturb"] == FLIP_LABEL
    assert flipped.config["perturb"] == FLIP_LABEL
    for ratio in (0.0, 1.0):
        one_sided = evaluate_model(
            params, SMALL_ICL, tri_dataset, context_size=4, ratio=ratio, seeds=(0,), hits_k=5,
        )
        assert len(one_sided.rows) == 1


def test_evaluate_model_validation(tri_dataset):
    params = init_params(SMALL_PLAIN, seed=0)
    for ratio in (1.5, -0.1, float("nan")):
        with pytest.raises(ConfigError, match="ratio must lie in"):
            evaluate_model(params, SMALL_PLAIN, tri_dataset, context_size=10, ratio=ratio)
    with pytest.raises(ConfigError):
        evaluate_model(params, SMALL_PLAIN, tri_dataset, context_size=0)
    whole = LinkDataset.whole_graph("whole", tri_dataset.observed)
    with pytest.raises(DataError):
        evaluate_model(params, SMALL_PLAIN, whole, context_size=10)


@pytest.mark.parametrize("bad, message", [
    ({"seeds": ()}, "seeds must name at least one seed"),
    ({"hits_k": 0}, "hits_k must be >= 1"),
])
def test_empty_seeds_and_bad_hits_k_fail_before_scoring(tri_dataset, monkeypatch, bad, message):
    import unilp.evaluation as evaluation

    scored = []
    monkeypatch.setattr(evaluation, "score_pairs", lambda *args, **kwargs: scored.append(args))
    params = init_params(SMALL_ICL, seed=0)
    with pytest.raises(ConfigError, match=message):
        evaluate_model(params, SMALL_ICL, tri_dataset, context_size=4, **bad)
    with pytest.raises(ConfigError, match=message):
        context_size_sweep(params, SMALL_ICL, tri_dataset, sizes=(2, 4), **bad)
    assert scored == []


# ---------------------------------------------------------------------------
# Spearman and the context-size sweep


def test_spearman_frozen_cases():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0
    assert spearman([1, 2, 2, 3], [10, 20, 20, 40]) == 1.0  # tied ranks average
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)
    assert spearman([1, 1, 1], [1, 2, 3]) == 0.0
    with pytest.raises(ConfigError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ConfigError):
        spearman([1], [1])


def reference_spearman(xs, ys):
    """Spearman over average ranks found by walking each run of ties in
    sorted order: what spearman must equal bit for bit."""

    def ranks(a):
        order = np.argsort(a, kind="stable")
        r = np.empty(a.size, dtype=np.float64)
        i = 0
        while i < a.size:
            j = i
            while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
                j += 1
            r[order[i : j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return r

    rx, ry = ranks(np.asarray(xs, dtype=np.float64)), ranks(np.asarray(ys, dtype=np.float64))
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return 0.0
    rx, ry = rx - rx.mean(), ry - ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def test_spearman_matches_reference_on_tied_inputs():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        xs, ys = rng.integers(0, 4, n) / 4, rng.integers(0, 5, n) * 0.1
        assert spearman(xs, ys) == reference_spearman(xs, ys), (xs, ys)


def test_context_size_sweep(tri_dataset):
    params = init_params(SMALL_ICL, seed=0)
    report = context_size_sweep(
        params, SMALL_ICL, tri_dataset, sizes=(2, 4, 8), seeds=(0, 1), hits_k=5
    )
    assert len(report.rows) == 6
    assert [r["context_size"] for r in report.rows] == [2, 4, 8, 2, 4, 8]
    trends = report.config["trend_spearman"]
    assert len(trends) == 2
    assert all(-1.0 <= t <= 1.0 for t in trends)

    # nested contexts: each size reuses a prefix of the seed's maximal draw
    pos, neg = list(tri_dataset.split.test_pos), list(tri_dataset.split.test_neg)
    full = build_context(tri_dataset, SMALL_ICL, 4, 4, derive_seed_int(0, "sweep-ctx", "tri"))
    ctx = ContextSet(full.positives[:1], full.negatives[:1])
    scores = score_pairs(params, SMALL_ICL, tri_dataset, pos + neg, ctx)
    expected = hits_at_k(scores[: len(pos)], scores[len(pos):], 5)
    assert report.rows[0]["value"] == expected


def test_context_size_sweep_validation(tri_dataset):
    icl_params = init_params(SMALL_ICL, seed=0)
    plain_params = init_params(SMALL_PLAIN, seed=0)
    with pytest.raises(ConfigError):
        context_size_sweep(plain_params, SMALL_PLAIN, tri_dataset, sizes=(2, 4))
    with pytest.raises(ConfigError):
        context_size_sweep(icl_params, SMALL_ICL, tri_dataset, sizes=())
    with pytest.raises(ConfigError):
        context_size_sweep(icl_params, SMALL_ICL, tri_dataset, sizes=(0, 2))
    for ratio in (1.5, -0.1, float("nan")):
        with pytest.raises(ConfigError, match="ratio must lie in"):
            context_size_sweep(icl_params, SMALL_ICL, tri_dataset, sizes=(2, 4), ratio=ratio)
