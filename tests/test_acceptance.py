"""End-to-end acceptance gate.

Each criterion prints one machine-greppable ``criterion N (<name>): PASS|FAIL``
line before asserting, so a failed run still reports the full scoreboard.
Training-based criteria (5-7) pin every hyperparameter and seed; all results
here are bit-reproducible on one platform.
"""
from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from unilp.autodiff import Tape
from unilp.evaluation import FLIP_LABEL, evaluate_model, hits_at_k, score_pairs
from unilp.graphs import (
    Graph,
    LatticeSpec,
    SbmSpec,
    count_simple_paths,
    derive_rng,
    derive_seed_int,
    generate_lattice,
    generate_sbm,
    sample_nonedges,
    split_edges,
)
from unilp.heuristics import Heuristic, score_batch
from unilp.labeling import drnl_plus, labeled_subgraph
from unilp.model import (
    ContextSet,
    ModelConfig,
    MODE_NO_CONTEXT,
    attention_scores,
    encode_subgraphs,
    forward,
    init_params,
    model_gradient_check,
)
from unilp.training import (
    LinkDataset,
    TrainConfig,
    eval_context_for,
    finetune,
    pretrain,
    sample_context,
    transfer_probe,
)

# the whole gate takes minutes; `pytest -m "not acceptance"` runs the rest
pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"\ncriterion {num} ({name}): {verdict}{tail}")


def _lattice(kind: str, rows: int, cols: int) -> Graph:
    return generate_lattice(LatticeSpec(kind=kind, rows=rows, cols=cols, torus=True))


# --------------------------------------------------------------------------
# criterion 1: exact lattice pattern probabilities
# --------------------------------------------------------------------------


def test_criterion_1_pattern_exactness():
    from unilp.evaluation import verify_connectivity_pattern

    t0 = time.time()
    grid = verify_connectivity_pattern(_lattice("grid", 8, 8))
    tri = verify_connectivity_pattern(_lattice("triangular", 8, 8))
    elapsed = time.time() - t0
    ok = (
        grid[2] == Fraction(0, 1)
        and grid[3] == Fraction(1, 4)
        and tri[2] == Fraction(1, 3)
        and tri[3] == Fraction(1, 6)
        and elapsed < 10.0
    )
    _report(1, "pattern exactness", ok,
            f"grid p2={grid[2]} p3={grid[3]} tri p2={tri[2]} p3={tri[3]} {elapsed:.2f}s")
    assert grid[2] == Fraction(0, 1)
    assert grid[3] == Fraction(1, 4)
    assert tri[2] == Fraction(1, 3)
    assert tri[3] == Fraction(1, 6)
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# criterion 2: heuristic zero-row on grid, CN strength on triangular
# --------------------------------------------------------------------------


def test_criterion_2_heuristic_rows():
    t0 = time.time()
    grid = _lattice("grid", 12, 12)
    tri = _lattice("triangular", 12, 12)
    grid_vals = {}
    for kind in ("cn", "aa", "ra"):
        vals = []
        for seed in range(5):
            sp = split_edges(grid, (0.7, 0.1, 0.2), seed=seed)
            obs = Graph.from_edges(sp.node_count, sp.observed)
            pos = score_batch(Heuristic(kind), obs, sp.test_pos)
            neg = score_batch(Heuristic(kind), obs, sp.test_neg)
            vals.append(hits_at_k(pos, neg, min(50, len(neg))))
        grid_vals[kind] = vals
    cn_tri = []
    for seed in range(5):
        sp = split_edges(tri, (0.7, 0.1, 0.2), seed=seed)
        obs = Graph.from_edges(sp.node_count, sp.observed)
        pos = score_batch(Heuristic("cn"), obs, sp.test_pos)
        neg = score_batch(Heuristic("cn"), obs, sp.test_neg)
        cn_tri.append(hits_at_k(pos, neg, min(50, len(neg))))
    elapsed = time.time() - t0
    zero_ok = all(v == 0.0 for vals in grid_vals.values() for v in vals)
    cn_mean = float(np.mean(cn_tri))
    ok = zero_ok and cn_mean >= 0.5 and elapsed < 60.0
    _report(2, "heuristic rows", ok,
            f"grid rows all 0.0: {zero_ok}, tri CN mean {cn_mean:.4f}, {elapsed:.1f}s")
    assert zero_ok
    assert cn_mean >= 0.5
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# criterion 3: end-to-end gradient fidelity
# --------------------------------------------------------------------------


def test_criterion_3_gradient_fidelity():
    t0 = time.time()
    errs = [model_gradient_check(seed) for seed in range(20)]
    elapsed = time.time() - t0
    worst = max(errs)
    ok = worst < 1e-4 and elapsed < 120.0
    _report(3, "gradient fidelity", ok, f"max rel err {worst:.3e} over 20 seeds, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 120.0


# --------------------------------------------------------------------------
# criterion 4: label-free attention under FLIP_LABEL
# --------------------------------------------------------------------------


def _attention_and_prob(params, cfg, g, query, ctx):
    """Per-member attention weights (per head) plus output probability."""
    tape = Tape()
    subs = [labeled_subgraph(g, query, cfg.radius, remove_target=True)]
    subs.extend(ctx.positives)
    subs.extend(ctx.negatives)
    h_all = encode_subgraphs(params, cfg, subs, tape)
    h_q = tape.reshape(tape.take_rows(h_all, [0]), (cfg.hidden_dim,))
    h_ctx = tape.take_rows(h_all, np.arange(1, len(subs)))
    alphas = attention_scores(params, cfg, h_q, h_ctx, tape)
    weights = [a.values.copy() for a in alphas]
    prob = forward(params, cfg, g, query, ctx)
    return weights, prob.item()


def test_criterion_4_label_free_attention():
    cfg = ModelConfig(hidden_dim=16, attention_dim=16, embed_dim=16,
                      encoder_layers=2, mlp_layers=2, mlp_hidden=16, heads=2)
    tri = _lattice("triangular", 6, 6)
    ds = LinkDataset.from_graph("tri", tri, seed=0)
    trained, _ = finetune(init_params(cfg, 0), ds, n_links=5, steps=60,
                          model_config=cfg,
                          train_config=TrainConfig(seed=0, lr=0.01, batch_size=10,
                                                   context_k=4, eval_context_size=8,
                                                   hits_k=5))
    cases = [("random", init_params(cfg, seed)) for seed in range(5)]
    cases.append(("trained", trained))
    checked = 0
    for name, params in cases:
        gap = float(np.linalg.norm(params["label.pos"].values - params["label.neg"].values))
        ctx = sample_context(ds, 8, seed=hash(name) % 97 + 1)
        n_pos = len(ctx.positives)
        flipped = ContextSet(positives=ctx.negatives, negatives=ctx.positives)
        query = tuple(ds.split.valid_pos[0])
        base_w, base_p = _attention_and_prob(params, cfg, ds.observed, query, ctx)
        flip_w, flip_p = _attention_and_prob(params, cfg, ds.observed, query, flipped)
        # member i of the base order maps to position (i + n_neg) mod m
        m = ctx.size
        perm = np.concatenate([np.arange(n_pos, m), np.arange(n_pos)])
        for bw, fw in zip(base_w, flip_w):
            assert np.array_equal(bw[perm], fw), "attention weights moved under FLIP_LABEL"
        if gap > 1e-3:
            assert abs(base_p - flip_p) > 1e-6, f"{name}: prob unchanged ({base_p})"
            checked += 1
    ok = checked == len(cases)
    _report(4, "label-free attention", ok,
            f"{checked}/{len(cases)} parameter sets moved probability; "
            "attention bit-identical under flip")
    assert ok


# --------------------------------------------------------------------------
# criteria 5 + 6: ICL pattern switch and FLIP_LABEL degradation
# (one pretraining run shared across both criteria)
# --------------------------------------------------------------------------

C5_CONFIG = ModelConfig(hidden_dim=48, attention_dim=48, embed_dim=48,
                        encoder_layers=2, mlp_layers=2, mlp_hidden=48, heads=4)
C5_TRAIN = TrainConfig(seed=0, context_k=20, eval_context_size=40, batch_size=32,
                       lr=1e-2, max_epochs=60, patience=15, per_graph_cap=600,
                       hits_k=3)
C5_EVAL_SIDE = 100
C5_SEEDS = (0, 1, 2, 3, 4)


def _anchored_pattern_pairs(g: Graph):
    """Anchored pair pools: 2-path-only and 3-path-only connectivity."""
    a2_only, a3_only = [], []
    for v in range(1, g.n):
        view = g.without_edge(0, v) if g.has_edge(0, v) else g
        has2 = count_simple_paths(view, 0, v, 2) > 0
        has3 = count_simple_paths(view, 0, v, 3) > 0
        if has2 and not has3:
            a2_only.append((0, v))
        elif has3 and not has2:
            a3_only.append((0, v))
    return a2_only, a3_only


def _pattern_switch_run(seed: int) -> dict:
    """One seed of the shared criterion 5 and 6 pretraining run (also
    imported by tests/seed_sweep.py)."""
    grid = _lattice("grid", 10, 10)
    tri = _lattice("triangular", 10, 10)
    query = LinkDataset.whole_graph("query-grid", grid)
    a2, a3 = _anchored_pattern_pairs(grid)
    ds_grid = LinkDataset.from_graph("grid", grid,
                                     seed=derive_seed_int(seed, "split", "grid"))
    ds_tri = LinkDataset.from_graph("tri", tri,
                                    seed=derive_seed_int(seed, "split", "tri"))
    tc = dataclasses.replace(C5_TRAIN, seed=seed)
    t0 = time.time()
    params, record = pretrain([ds_grid, ds_tri], [ds_grid, ds_tri], C5_CONFIG, tc)
    train_s = time.time() - t0
    means = {}
    for name, ds in (("tri", ds_tri), ("grid", ds_grid)):
        ctx = eval_context_for(ds, C5_CONFIG, C5_EVAL_SIDE,
                               derive_seed_int(seed, "c5-ctx", name))
        scores = score_pairs(params, C5_CONFIG, query, a2 + a3, ctx)
        means[name] = (float(np.mean(scores[: len(a2)])),
                       float(np.mean(scores[len(a2):])))
    return dict(seed=seed, params=params, ds_grid=ds_grid, ds_tri=ds_tri,
                means=means, train_s=train_s, record=record)


@pytest.fixture(scope="module")
def pattern_switch_runs():
    return [_pattern_switch_run(seed) for seed in C5_SEEDS]


def test_criterion_5_pattern_switch(pattern_switch_runs):
    good = 0
    details = []
    total_train = sum(r["train_s"] for r in pattern_switch_runs)
    for r in pattern_switch_runs:
        tri_a2, tri_a3 = r["means"]["tri"]
        grid_a2, grid_a3 = r["means"]["grid"]
        hit = tri_a2 > tri_a3 and grid_a2 < grid_a3
        good += hit
        details.append(f"seed {r['seed']}: tri {tri_a2:.3f}/{tri_a3:.3f} "
                       f"grid {grid_a2:.3f}/{grid_a3:.3f} {'ok' if hit else 'X'}")
    ok = good >= 4 and total_train < 1800.0
    _report(5, "ICL pattern switch", ok,
            f"{good}/5 seeds, train {total_train:.0f}s; " + "; ".join(details))
    assert good >= 4, details
    assert total_train < 1800.0


def _flip_hits(run: dict) -> list:
    """Criterion 6's (graph, base Hits@10, flipped Hits@10) for one run."""
    per_ds = []
    for name, ds in (("grid", run["ds_grid"]), ("tri", run["ds_tri"])):
        base = evaluate_model(run["params"], C5_CONFIG, ds, context_size=40,
                              ratio=0.5, seeds=(run["seed"],), hits_k=10).rows[0]["value"]
        flip = evaluate_model(run["params"], C5_CONFIG, ds, context_size=40,
                              ratio=0.5, seeds=(run["seed"],), perturb=FLIP_LABEL,
                              hits_k=10).rows[0]["value"]
        per_ds.append((name, base, flip))
    return per_ds


def test_criterion_6_flip_degradation(pattern_switch_runs):
    good = 0
    details = []
    for r in pattern_switch_runs:
        seed = r["seed"]
        per_ds = _flip_hits(r)
        hit = all(flip <= 0.5 * base for _, base, flip in per_ds)
        good += hit
        details.append(f"seed {seed}: " + " ".join(
            f"{n} {b:.2f}->{f:.2f}" for n, b, f in per_ds) + (" ok" if hit else " X"))
    ok = good >= 4
    _report(6, "FLIP_LABEL degradation", ok, f"{good}/5 seeds; " + "; ".join(details))
    assert good >= 4, details


# --------------------------------------------------------------------------
# criterion 7: negative transfer direction
# --------------------------------------------------------------------------


C7_CONFIG = ModelConfig(hidden_dim=24, attention_dim=24, embed_dim=24,
                        encoder_layers=2, mlp_layers=2, mlp_hidden=24,
                        mode=MODE_NO_CONTEXT)
C7_TRAIN = TrainConfig(seed=0, context_k=4, eval_context_size=8, batch_size=32,
                       lr=1e-3, max_epochs=60, patience=10, per_graph_cap=600,
                       hits_k=5)


def _transfer_delta(seed: int) -> float:
    """Criterion 7's transfer delta for one seed."""
    return transfer_probe(_lattice("grid", 10, 10), _lattice("triangular", 10, 10),
                          C7_CONFIG, C7_TRAIN, seed=seed).delta


def test_criterion_7_negative_transfer():
    t0 = time.time()
    deltas = []
    for seed in range(5):
        deltas.append(_transfer_delta(seed))
    elapsed = time.time() - t0
    mean_delta = float(np.mean(deltas))
    ok = mean_delta < 0.0 and elapsed < 1800.0
    _report(7, "negative transfer", ok,
            f"mean delta {mean_delta:+.4f} over 5 seeds "
            f"({', '.join(f'{d:+.3f}' for d in deltas)}), {elapsed:.0f}s")
    assert mean_delta < 0.0, deltas
    assert elapsed < 1800.0


# --------------------------------------------------------------------------
# criterion 8: oracle suites
# --------------------------------------------------------------------------


def _hits_oracle(pos, neg, k):
    hits = 0
    for p in pos:
        if sum(1 for x in neg if x >= p) < k:
            hits += 1
    return hits / len(pos)


def _katz_oracle(g: Graph, pair, beta: float, length: int) -> float:
    """Dense matrix-power Katz on the scoring view (target edge removed)."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edge_array():
        a[u, v] = a[v, u] = 1.0
    p, q = pair
    a[p, q] = a[q, p] = 0.0
    total, power = 0.0, np.eye(g.n)
    for l in range(1, length + 1):
        power = power @ a
        total += beta ** l * power[pair[0], pair[1]]
    return total


def test_criterion_8_oracle_suites():
    rng = derive_rng(0, "acceptance-hits")
    hits_ok = True
    for _ in range(1000):
        n_pos = int(rng.integers(1, 12))
        n_neg = int(rng.integers(1, 40))
        k = int(rng.integers(1, n_neg + 1))
        pool = rng.choice([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0], size=n_pos + n_neg)
        pos, neg = pool[:n_pos], pool[n_pos:]
        if hits_at_k(pos, neg, k) != pytest.approx(_hits_oracle(pos, neg, k)):
            hits_ok = False
            break

    katz_ok = True
    worst_katz = 0.0
    h = Heuristic("katz", katz_beta=0.01, katz_len=6)
    for seed in range(50):
        rng_g = derive_rng(seed, "acceptance-katz")
        n = int(rng_g.integers(5, 21))
        g = generate_sbm(SbmSpec(block_sizes=(n,), p_in=0.3, p_out=0.0), seed=seed)
        pairs = [(int(a), int(b)) for a in range(0, n, 3) for b in range(a + 1, n, 4)]
        for pair in pairs[:6]:
            got = float(score_batch(h, g, [pair])[0])
            want = _katz_oracle(g, pair, 0.01, 6)
            worst_katz = max(worst_katz, abs(got - want))
    katz_ok = worst_katz < 1e-12

    relabel_ok = True
    base_g = generate_sbm(SbmSpec(block_sizes=(14,), p_in=0.4, p_out=0.0), seed=3)
    base_pair = (0, 5)
    base_sub = labeled_subgraph(base_g, base_pair, radius=2)
    base_multiset = sorted(drnl_plus(base_sub))
    edges = base_g.edge_array()
    for trial in range(100):
        perm_rng = derive_rng(trial, "acceptance-relabel")
        perm = perm_rng.permutation(base_g.n)
        remapped = Graph.from_edges(
            base_g.n, [(int(perm[u]), int(perm[v])) for u, v in edges])
        pair = (int(perm[base_pair[0]]), int(perm[base_pair[1]]))
        sub = labeled_subgraph(remapped, pair, radius=2)
        if sorted(drnl_plus(sub)) != base_multiset:
            relabel_ok = False
            break

    split_ok = True
    g = _lattice("triangular", 8, 8)
    for seed in (0, 7):
        a = split_edges(g, (0.7, 0.1, 0.2), seed=seed)
        b = split_edges(g, (0.7, 0.1, 0.2), seed=seed)
        split_ok &= (a.observed == b.observed and a.test_pos == b.test_pos
                     and a.test_neg == b.test_neg and a.valid_pos == b.valid_pos
                     and a.valid_neg == b.valid_neg)
        sa = sample_nonedges(g, 25, seed)
        sb = sample_nonedges(g, 25, seed)
        split_ok &= sa == sb
    split_ok &= split_edges(g, (0.7, 0.1, 0.2), 0).observed != \
        split_edges(g, (0.7, 0.1, 0.2), 1).observed

    ok = hits_ok and katz_ok and relabel_ok and split_ok
    _report(8, "oracle suites", ok,
            f"hits {hits_ok}, katz max err {worst_katz:.2e}, "
            f"relabel {relabel_ok}, splits {split_ok}")
    assert hits_ok
    assert katz_ok
    assert relabel_ok
    assert split_ok
