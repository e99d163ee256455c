"""Evaluation: ranking metrics, context perturbations, report files, and an
exact combinatorial check of what "connectivity pattern" a graph rewards.

The pattern verifier answers, with rational arithmetic: among node pairs
whose endpoints are connected by a simple path of exactly 2 (resp. 3) edges
after removing any edge between them, what fraction are themselves linked?
Regular lattices give clean constants here, which makes them useful probes
for whether a context-conditioned scorer actually reads its context.

`score_pairs` scores queries in blocks of up to `SCORE_BLOCK` pairs against
one shared context. A block encodes every query in one encoder call, scores
each distinct encoder row once (many pairs of a lattice look alike), in
slices of `SCORE_CHUNK` rows, and gathers one probability per pair. A
subgraph's row is bit-identical in any batch and a query's probability
depends only on its row, so scores are bit-identical whatever the block,
the slice or the number of workers.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .graphs import (
    PAIR_ENUMERATION_GUARD,
    Graph,
    SbmSpec,
    canonical_pair,
    count_simple_paths,
    derive_seed_int,
    generate_sbm,
    write_json_atomic,
    write_text_atomic,
)
from .model import MODE_NO_CONTEXT, ContextSet, ModelConfig, encode_subgraphs, predict_batch
from .autodiff import Tape, const

#: Most pairs one encoder call takes while scoring.
SCORE_BLOCK = 1024
#: Distinct rows per predict_batch call; bounds the (B, m, F) attention peak.
SCORE_CHUNK = 64

FLIP_LABEL = "flip_label"
RANDOM_CONTEXT = "random_context"
PERTURB_KINDS = (FLIP_LABEL, RANDOM_CONTEXT)
#: The unrelated graph that random_context draws its contexts from.
RANDOM_CONTEXT_SBM = SbmSpec(block_sizes=(60, 60), p_in=0.1, p_out=0.02)


# ---------------------------------------------------------------------------
# ranking metric


def hits_at_k(pos_scores, neg_scores, k: int) -> float:
    """Fraction of positives scoring strictly above the k-th best negative."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0:
        raise ConfigError("hits_at_k needs at least one positive score")
    if k < 1 or k > neg.size:
        raise ConfigError(f"k={k} out of range for {neg.size} negatives")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise NumericError("hits_at_k received non-finite scores")
    threshold = np.sort(neg)[-k]
    return float(np.mean(pos > threshold))


# ---------------------------------------------------------------------------
# connectivity-pattern verification


@dataclass(frozen=True)
class PatternStats:
    """Exact link rates conditioned on 2-edge / 3-edge simple-path reachability."""

    p_two: Fraction = None
    p_three: Fraction = None
    n_two: int = 0
    n_three: int = 0
    n_pairs: int = 0

    def to_json_dict(self) -> dict:
        def enc(f):
            return None if f is None else [f.numerator, f.denominator]

        return {
            "p_A2": enc(self.p_two),
            "p_A3": enc(self.p_three),
            "counts": {"A2": self.n_two, "A3": self.n_three, "pairs": self.n_pairs},
        }

    def save(self, path):
        write_json_atomic(path, self.to_json_dict())


def _enumerate_pattern(g: Graph, link_set, anchors):
    if link_set is None:
        link_set = g.edge_set()
    first = range(g.n) if anchors is None else sorted(set(anchors))
    for a in first:
        if not 0 <= a < g.n:
            raise ConfigError(f"anchor {a} out of range for {g.n} nodes")
    bound = sum((g.n - 1 - a) if anchors is None else g.n - 1 for a in first)
    if bound > PAIR_ENUMERATION_GUARD:
        raise DataError(
            f"up to {bound} candidate pairs exceeds the enumeration guard "
            f"({PAIR_ENUMERATION_GUARD}); restrict anchors"
        )
    hits = {2: 0, 3: 0}
    totals = {2: 0, 3: 0}
    seen = set()
    for u in first:
        others = range(u + 1, g.n) if anchors is None else range(g.n)
        for v in others:
            if v == u:
                continue
            pair = canonical_pair(u, v)
            if pair in seen:
                continue
            seen.add(pair)
            linked = pair in link_set
            # a simple path of 2 or more edges never uses the pair's own edge,
            # so the count on g equals the count with that edge removed
            for length in (2, 3):
                if count_simple_paths(g, pair[0], pair[1], length) > 0:
                    totals[length] += 1
                    hits[length] += linked
    return hits, totals, len(seen)


def verify_connectivity_pattern(g: Graph, link_set=None, anchors=None) -> dict:
    """Exact conditional link probabilities for path lengths 2 and 3.

    For each unordered pair (with the pair's own edge, if any, removed),
    test whether a simple path of exactly 2 (resp. 3) edges connects the
    endpoints; return {2: p, 3: p}, each Fraction(linked pairs, such pairs)
    or None when no pair qualifies. `anchors` restricts the first endpoint;
    `link_set` overrides which pairs count as linked (defaults to the
    graph's own edges).
    """
    stats = pattern_stats(g, link_set, anchors)
    return {2: stats.p_two, 3: stats.p_three}


def pattern_stats(g: Graph, link_set=None, anchors=None) -> PatternStats:
    hits, totals, n_pairs = _enumerate_pattern(g, link_set, anchors)
    return PatternStats(
        p_two=Fraction(hits[2], totals[2]) if totals[2] else None,
        p_three=Fraction(hits[3], totals[3]) if totals[3] else None,
        n_two=totals[2], n_three=totals[3], n_pairs=n_pairs,
    )


# ---------------------------------------------------------------------------
# context perturbations


def perturb_context(context: ContextSet, kind: str, seed: int = 0,
                    config: ModelConfig = ModelConfig()) -> ContextSet:
    """Return a corrupted copy of the context.

    flip_label swaps which side each example sits on (applying it twice
    restores the original); random_context draws a context of the same
    shape from a freshly generated unrelated graph, extracting its members
    as the config says.
    """
    if kind == FLIP_LABEL:
        return ContextSet(positives=context.negatives, negatives=context.positives)
    if kind == RANDOM_CONTEXT:
        from .training import LinkDataset, build_context

        g = generate_sbm(RANDOM_CONTEXT_SBM, derive_seed_int(seed, "random-ctx-graph"))
        return build_context(
            LinkDataset.whole_graph("random-context", g), config, len(context.positives),
            len(context.negatives), derive_seed_int(seed, "random-ctx-pairs"),
        )
    raise ConfigError(f"unknown perturbation {kind!r}; expected one of {PERTURB_KINDS}")


# ---------------------------------------------------------------------------
# scoring


def _encode_context_values(params, config, context):
    """Context embeddings as a plain (1, m, F) array, the shared context of
    every scored query (encoded once per evaluation)."""
    if config.mode == MODE_NO_CONTEXT:
        return None, 0
    if context is None or context.size == 0:
        raise ConfigError("in-context scoring needs a non-empty context")
    subs = list(context.positives) + list(context.negatives)
    h = encode_subgraphs(params, config, subs, Tape())
    return h.values.reshape((1,) + h.shape), len(context.positives)


def _constants(param_values: dict) -> dict:
    """Parameter values as constants, so scoring records no backward graph
    and frees each intermediate as soon as the next op is done with it."""
    return {name: const(values) for name, values in param_values.items()}


def _score_block(params, config, dataset, pairs, ctx_values, n_ctx_pos):
    """Probabilities of one block of pairs: the block is encoded in one call,
    and each distinct encoder row (by bit pattern, so -0.0 and 0.0 stay
    apart) is scored once, SCORE_CHUNK rows at a time, and gathered per pair."""
    tape = Tape()
    h = encode_subgraphs(params, config, [dataset.subgraph(p, config) for p in pairs], tape).values
    bits = np.ascontiguousarray(h).view(np.dtype((np.void, h.itemsize * h.shape[1]))).ravel()
    _, first, picks = np.unique(bits, return_index=True, return_inverse=True)
    rows = h[first]
    h_ctx = None if ctx_values is None else const(ctx_values)
    probs = [predict_batch(params, config, const(rows[lo:lo + SCORE_CHUNK]), h_ctx, n_ctx_pos, tape).values
             for lo in range(0, len(rows), SCORE_CHUNK)]
    return np.concatenate(probs)[picks]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_WORKER_STATE = {}


def _worker_init(param_values, config, split, name, ctx_values, n_ctx_pos):
    from .training import LinkDataset

    _WORKER_STATE["params"] = _constants(param_values)
    _WORKER_STATE["config"] = config
    _WORKER_STATE["dataset"] = LinkDataset(name=name, split=split)
    _WORKER_STATE["ctx"] = (ctx_values, n_ctx_pos)


def _worker_score(pairs):
    state = _WORKER_STATE
    return _score_block(state["params"], state["config"], state["dataset"], pairs, *state["ctx"])


def score_pairs(params, config: ModelConfig, dataset, pairs, context=None, jobs: int = 1):
    """Probability per query pair, in order.

    The context is embedded once. Queries are scored in blocks of up to
    SCORE_BLOCK pairs; with several workers (at most `jobs`, and at most the
    CPUs this process may use) a block holds an equal share of the pairs,
    but no fewer than SCORE_CHUNK, so every worker gets a block. The result
    is bit-identical whatever `jobs` is. In process and in workers alike,
    the parameters enter as constants: scoring records no backward graph and
    never touches a parameter's gradient.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    pairs = [canonical_pair(*p) for p in pairs]
    if not pairs:
        return np.zeros(0, dtype=np.float64)
    param_values = {name: t.values for name, t in params.items()}
    params = _constants(param_values)
    ctx_values, n_ctx_pos = _encode_context_values(params, config, context)
    workers = min(jobs, _usable_cpus())
    size = min(SCORE_BLOCK, max(SCORE_CHUNK, -(-len(pairs) // workers)))
    blocks = [pairs[lo : lo + size] for lo in range(0, len(pairs), size)]
    if workers == 1 or len(blocks) == 1:
        return np.concatenate([_score_block(params, config, dataset, block, ctx_values, n_ctx_pos)
                               for block in blocks])
    initargs = (param_values, config, dataset.split, dataset.name, ctx_values, n_ctx_pos)
    with ProcessPoolExecutor(max_workers=min(workers, len(blocks)), initializer=_worker_init,
                             initargs=initargs) as pool:
        return np.concatenate(list(pool.map(_worker_score, blocks)))


# ---------------------------------------------------------------------------
# experiment reports


REPORT_COLUMNS = (
    "experiment", "dataset", "mode", "context_size", "ratio",
    "perturb", "seed", "run", "metric", "value",
)


@dataclass
class EvalReport:
    """Accumulates rows in the shared report schema; one row per measurement."""

    experiment: str
    config: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def add(self, dataset: str, mode: str, context_size: int, ratio: float,
            perturb, seed: int, run: int, metric: str, value: float):
        self.rows.append({
            "experiment": self.experiment, "dataset": dataset, "mode": mode,
            "context_size": context_size, "ratio": ratio,
            "perturb": "" if perturb is None else perturb,
            "seed": seed, "run": run, "metric": metric, "value": value,
        })

    def values(self, metric: str):
        return [r["value"] for r in self.rows if r["metric"] == metric]

    def summary(self) -> dict:
        out = {}
        for metric in sorted({r["metric"] for r in self.rows}):
            vals = np.array(self.values(metric), dtype=np.float64)
            out[metric] = {
                "mean": float(vals.mean()),
                "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                "n": int(vals.size),
            }
        return out

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()

    def save_csv(self, path):
        write_text_atomic(path, self.to_csv_text())

    def save_json(self, path):
        write_json_atomic(path, {
            "experiment": self.experiment,
            "config": self.config,
            "summary": self.summary(),
            "rows": self.rows,
        })


def _checked_runs(seeds, hits_k: int) -> list:
    """The seeds as a list, after the checks every run needs before any
    context is drawn or pair scored: at least one seed, and hits_k >= 1."""
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("seeds must name at least one seed")
    if hits_k < 1:
        raise ConfigError("hits_k must be >= 1")
    return seeds


def evaluate_model(params, config: ModelConfig, dataset, context_size: int,
                   ratio: float = 0.5, seeds=(0,), perturb=None, hits_k: int = 50,
                   jobs: int = 1) -> EvalReport:
    """Score the dataset's test slice under fresh contexts, one run per seed.

    `context_size` is the total number of context links; `ratio` is the
    positive share (n_pos = round(size * ratio)). In no-context mode those
    knobs are recorded but unused.
    """
    from .training import build_context

    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"ratio must lie in [0, 1], got {ratio}")
    if context_size < 1:
        raise ConfigError("context_size must be >= 1")
    seeds = _checked_runs(seeds, hits_k)
    pos, neg = list(dataset.split.test_pos), list(dataset.split.test_neg)
    if not pos or not neg:
        raise DataError(f"dataset {dataset.name!r} has an empty test slice")
    report = EvalReport(experiment="eval", config={
        "model": config.to_dict(), "context_size": context_size, "ratio": ratio,
        "perturb": perturb, "seeds": seeds, "hits_k": hits_k,
        "dataset": dataset.name,
    })
    k_eff = min(hits_k, len(neg))
    n_pos = int(round(context_size * ratio))
    n_neg = context_size - n_pos
    for run, seed in enumerate(seeds):
        context = None
        if config.mode != MODE_NO_CONTEXT:
            context = build_context(dataset, config, n_pos, n_neg,
                                    derive_seed_int(seed, "eval-ctx", dataset.name))
            if perturb is not None:
                context = perturb_context(context, perturb,
                                          derive_seed_int(seed, "eval-perturb"), config)
        scores = score_pairs(params, config, dataset, pos + neg, context, jobs=jobs)
        value = hits_at_k(scores[: len(pos)], scores[len(pos):], k_eff)
        report.add(dataset.name, config.mode, context_size, ratio, perturb,
                   seed, run, f"hits@{k_eff}", value)
    return report


# ---------------------------------------------------------------------------
# context-size sweep


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties; 0 when either
    input is constant."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ConfigError("spearman expects two equal-length 1-D sequences")
    if xs.size < 2:
        raise ConfigError("spearman needs at least two points")

    def ranks(a):
        # equal values share the mean 1-based rank of their sorted positions
        _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
        starts = np.cumsum(counts) - counts
        return (starts + (counts + 1) / 2)[inverse]

    rx, ry = ranks(xs), ranks(ys)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return 0.0
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def context_size_sweep(params, config: ModelConfig, dataset, sizes, ratio: float = 0.5,
                       seeds=(0,), hits_k: int = 50, jobs: int = 1) -> EvalReport:
    """Hits@K as a function of context size, on nested contexts.

    For each seed one maximal context is sampled; smaller sizes reuse its
    prefixes, so along the sweep the only thing changing is how much of the
    same evidence the model sees. The report's summary gains a Spearman
    trend statistic per seed.
    """
    if config.mode == MODE_NO_CONTEXT:
        raise ConfigError("context_size_sweep requires a context-conditioned mode")
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"ratio must lie in [0, 1], got {ratio}")
    from .training import build_context

    sizes = sorted(set(int(s) for s in sizes))
    if not sizes or sizes[0] < 1:
        raise ConfigError("sizes must be positive integers")
    seeds = _checked_runs(seeds, hits_k)
    pos, neg = list(dataset.split.test_pos), list(dataset.split.test_neg)
    if not pos or not neg:
        raise DataError(f"dataset {dataset.name!r} has an empty test slice")
    report = EvalReport(experiment="context-size-sweep", config={
        "model": config.to_dict(), "sizes": sizes, "ratio": ratio,
        "seeds": seeds, "hits_k": hits_k, "dataset": dataset.name,
    })
    k_eff = min(hits_k, len(neg))
    trends = []
    for run, seed in enumerate(seeds):
        want_pos = int(round(sizes[-1] * ratio))
        full = build_context(dataset, config,
                             *dataset.clip_to_capacity(want_pos, sizes[-1] - want_pos),
                             derive_seed_int(seed, "sweep-ctx", dataset.name))
        values = []
        used_sizes = []
        for size in sizes:
            n_pos = int(round(size * ratio))
            context = ContextSet(full.positives[:n_pos], full.negatives[:size - n_pos])
            if context.size == 0:
                continue
            scores = score_pairs(params, config, dataset, pos + neg, context, jobs=jobs)
            value = hits_at_k(scores[: len(pos)], scores[len(pos):], k_eff)
            report.add(dataset.name, config.mode, size, ratio, None, seed, run,
                       f"hits@{k_eff}", value)
            values.append(value)
            used_sizes.append(size)
        if len(values) >= 2:
            trends.append(spearman(used_sizes, values))
    report.config["trend_spearman"] = trends
    return report
