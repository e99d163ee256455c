"""Pretraining, finetuning, and the negative-transfer probe.

Pretraining optimizes mean BCE over link queries drawn round-robin from a
list of graphs. In ICL mode every query gets a freshly sampled context from
its own graph on every visit, which teaches the attention path to read the
context instead of memorizing one. Model selection is a merged validation
metric: held-out Hits@K averaged over the validation slices of the given
datasets, with early stopping on patience and the best checkpoint returned.
Both pretraining and finetuning build their (query, context, label) items
with `training_item`, only the seeds of the contexts differ, and both take
each optimizer step through the one update step that `_updater` makes.

Every context, in training, validation, evaluation, sweeps and random-
context perturbations, is drawn by `build_context`, and every query and
context member is extracted by `LinkDataset.subgraph` as the `ModelConfig`
says (radius, hop cap), so training and evaluation see one representation.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Optimizer, Tape, clone_params, step as opt_step
from .errors import ConfigError, DataError, NumericError, check_number_fields
from .graphs import (
    DataSplit,
    Graph,
    derive_seed_int,
    pair_index,
    sample_nonedges,
    split_edges,
    write_text_atomic,
)
from .labeling import labeled_subgraph
from .model import MODE_ICL, MODE_NO_CONTEXT, ContextSet, ModelConfig, batch_loss, init_params
from .rng import derive_rng

log = logging.getLogger(__name__)

#: Per-dataset cap on validation links used for the merged metric.
MERGED_VALIDATION_CAP = 200


@dataclass
class LinkDataset:
    """A split plus cached derived state (observed graph, subgraphs)."""

    name: str
    split: DataSplit
    observed: Graph = None
    full_edges: frozenset = None
    _subgraphs: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.observed is None:
            self.observed = self.split.observed_graph()
        if self.full_edges is None:
            self.full_edges = self.split.full_edge_set()

    @classmethod
    def from_graph(cls, name: str, g: Graph, fractions=(0.7, 0.1, 0.2), seed: int = 0) -> "LinkDataset":
        return cls(name=name, split=split_edges(g, fractions, seed))

    @classmethod
    def whole_graph(cls, name: str, g: Graph) -> "LinkDataset":
        """Use every edge as observed; no held-out slices (training-only role)."""
        split = DataSplit(
            seed=0,
            node_count=g.n,
            observed=tuple(map(tuple, g.edge_array().tolist())),
            valid_pos=(),
            valid_neg=(),
            test_pos=(),
            test_neg=(),
            id_map=tuple(g.source_ids.tolist()) if g.source_ids is not None else tuple(range(g.n)),
        )
        return cls(name=name, split=split, observed=g)

    def subgraph(self, pair, config: ModelConfig):
        """Labeled ego subgraph on the observed graph, extracted with the
        config's radius and hop cap; memoized under the canonical pair, so
        (u, v) and (v, u) give the same object."""
        u, v = pair
        key = ((u, v) if u < v else (v, u), config.radius, config.max_per_hop)
        sub = self._subgraphs.get(key)
        if sub is None:
            sub = labeled_subgraph(self.observed, pair, config.radius,
                                   max_per_hop=config.max_per_hop)
            self._subgraphs[key] = sub
        return sub

    def clip_to_capacity(self, n_pos: int, n_neg: int) -> tuple:
        """Context side sizes clipped to what the graph offers: its observed
        edges, and the node pairs outside the full edge set."""
        n = self.observed.n
        n_free = n * (n - 1) // 2 - len(self.full_edges)
        return min(n_pos, self.observed.edge_count), min(n_neg, n_free)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization schedule shared by pretrain and finetune."""

    seed: int = 0
    context_k: int = 40
    eval_context_size: int = 200
    batch_size: int = 32
    optimizer: str = "adam"
    lr: float = 1e-3
    max_epochs: int = 200
    patience: int = 10
    per_graph_cap: int = 2000
    hits_k: int = 50

    def __post_init__(self):
        check_number_fields(self, ints=("seed", "context_k", "eval_context_size", "batch_size",
                                        "max_epochs", "patience", "per_graph_cap", "hits_k"),
                            reals=("lr",))
        if self.batch_size < 1 or self.max_epochs < 0 or self.patience < 1:
            raise ConfigError("batch_size/patience must be >= 1 and max_epochs >= 0")
        if self.context_k < 1 or self.eval_context_size < 1 or self.per_graph_cap < 1:
            raise ConfigError("context sizes and caps must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.hits_k < 1:
            raise ConfigError("hits_k must be >= 1")


@dataclass
class TrainRecord:
    """Per-epoch trace: (epoch, mean loss, merged validation metric)."""

    epochs: list = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float = float("-inf")
    stopped_epoch: int = 0
    diverged: bool = False

    def to_csv(self, path):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["epoch", "loss", "val_metric"])
        for epoch, loss, metric in self.epochs:
            writer.writerow([epoch, f"{loss:.10g}", f"{metric:.10g}"])
        write_text_atomic(path, buf.getvalue())


# ---------------------------------------------------------------------------
# pools and context sampling


def build_training_pool(g: Graph, seed: int) -> tuple:
    """Alternating (pair, label) queries: every edge of g as a positive and
    an equal number of sampled non-edges as negatives."""
    positives = [tuple(e) for e in g.edge_array().tolist()]
    negatives = sample_nonedges(g, len(positives), derive_seed_int(seed, "pool-neg"))
    pool = []
    for pos, neg in zip(positives, negatives):
        pool.append((pos, 1.0))
        pool.append((neg, 0.0))
    return tuple(pool)


def sample_context_pairs(g: Graph, n_pos: int, n_neg: int, seed: int, exclude=None, forbidden=()):
    """Pick context link pairs: n_pos observed edges (never the excluded
    query) and n_neg non-edges avoiding `forbidden` and the query."""
    if n_pos < 0 or n_neg < 0 or n_pos + n_neg == 0:
        raise ConfigError(f"context needs at least one member, got ({n_pos}, {n_neg})")
    edges, codes = g.edge_array(), g.edge_codes()
    skip = len(edges)  # position of the query among the edges, if it is one
    if exclude is not None:
        exclude = (min(exclude), max(exclude))
        code = pair_index(g.n, *exclude)
        i = int(np.searchsorted(codes, code))
        if i < len(codes) and codes[i] == code:
            skip = i
    n_edges = len(edges) - (skip < len(edges))
    if n_pos > n_edges:
        raise DataError(f"context wants {n_pos} positives, graph offers {n_edges}")
    picks = derive_rng(seed, "context-pos").choice(n_edges, size=n_pos, replace=False)
    # picks index the edge list with the query taken out
    pos_pairs = list(map(tuple, edges[picks + (picks >= skip)].tolist()))
    neg_pairs = (
        sample_nonedges(g, n_neg, derive_seed_int(seed, "context-neg"), exclude=forbidden,
                        query=exclude)
        if n_neg
        else []
    )
    return pos_pairs, neg_pairs


def build_context(dataset: LinkDataset, config: ModelConfig, n_pos: int, n_neg: int, seed: int,
                  exclude=None) -> ContextSet:
    """The one way a context is drawn: n_pos observed edges (never the
    excluded query) and n_neg non-edges of the dataset, deterministic per
    (seed, exclude), each extracted as the config says. Negatives avoid the
    full edge set (held-out links never masquerade as negatives)."""
    pos_pairs, neg_pairs = sample_context_pairs(
        dataset.observed, n_pos, n_neg, seed, exclude=exclude, forbidden=dataset.full_edges
    )
    return ContextSet(
        positives=tuple(dataset.subgraph(p, config) for p in pos_pairs),
        negatives=tuple(dataset.subgraph(p, config) for p in neg_pairs),
    )


def sample_context(dataset: LinkDataset, k: int, seed: int, exclude=None,
                   config: ModelConfig = ModelConfig()) -> ContextSet:
    """k positive and k negative context links; see build_context."""
    return build_context(dataset, config, k, k, seed, exclude=exclude)


def training_item(ds: LinkDataset, pair, label: float, model_config: ModelConfig, context_k: int,
                  context_key: tuple) -> tuple:
    """One (query_sub, context, label) item of batch_loss. In ICL mode the
    context is context_k positives and context_k negatives, never the query
    itself, sampled with the seed derive_seed_int(*context_key)."""
    context = None
    if model_config.mode == MODE_ICL:
        context = build_context(ds, model_config, context_k, context_k,
                                derive_seed_int(*context_key), exclude=pair)
    return ds.subgraph(pair, model_config), context, label

# ---------------------------------------------------------------------------
# pretraining


def _updater(params: dict, model_config: ModelConfig, train_config: TrainConfig):
    """The one training update of pretrain and finetune: `update(items)`
    runs batch_loss, back-propagates, steps `params` in place and returns
    the mean loss. It holds the last loss tensor, whose gradient functions
    reach every forward array of its batch, until the next forward pass has
    returned, so across validation and epoch ends too. Any other lifetime
    costs warm epochs page faults: freed earlier, the heap shrinks between
    batches; held through the next step, two graphs live at once (the heap
    trap in CHANGES.md). A test in tests/test_training.py pins this
    lifetime."""
    opt = Optimizer(kind=train_config.optimizer, lr=train_config.lr)
    held = None

    def update(items) -> float:
        nonlocal held
        tape = Tape()
        held = batch_loss(params, model_config, items, tape)  # frees the previous graph
        tape.backward(held)
        opt_step(opt, params)
        return held.item()

    return update


def _merged_validation(params, model_config, val_datasets, val_contexts, hits_k):
    from .evaluation import hits_at_k, score_pairs

    metrics = []
    for ds, context in zip(val_datasets, val_contexts):
        cap = MERGED_VALIDATION_CAP
        pos, neg = ds.split.valid_pos[:cap], ds.split.valid_neg[:cap]
        if not pos or not neg:
            raise DataError(f"dataset {ds.name!r} has an empty validation slice")
        scores = score_pairs(params, model_config, ds, list(pos) + list(neg), context)
        k_eff = min(hits_k, len(neg))
        metrics.append(hits_at_k(scores[: len(pos)], scores[len(pos) :], k_eff))
    return float(np.mean(metrics))


def _epoch_queries(pools, cap, seed, epoch):
    """Round-robin interleaving of per-dataset query lists, reshuffled each
    epoch; each dataset contributes at most cap queries."""
    per_ds = []
    for ds_index, pool in enumerate(pools):
        if not pool:
            per_ds.append([])
            continue
        rng = derive_rng(seed, "epoch-shuffle", epoch, ds_index)
        order = rng.permutation(len(pool))[:cap]
        per_ds.append([(ds_index,) + tuple(pool[i]) for i in order])
    queries = []
    for slot in range(max((len(l) for l in per_ds), default=0)):
        for lst in per_ds:
            if slot < len(lst):
                queries.append(lst[slot])
    return queries


def eval_context_for(ds: LinkDataset, model_config: ModelConfig, size: int, seed: int) -> ContextSet:
    """Inference-time context: `size` per side, clipped to graph capacity."""
    return build_context(ds, model_config, *ds.clip_to_capacity(size, size), seed)


def pretrain(train_datasets, val_datasets, model_config: ModelConfig, train_config: TrainConfig):
    """Optimize from scratch; returns (best params, TrainRecord).

    Validation contexts are sampled once and held fixed; the training
    context of every query is resampled at every visit. Non-finite numerics
    abort the run and return the best (always finite) checkpoint seen.
    """
    if not train_datasets:
        raise ConfigError("pretrain needs at least one training dataset")
    if not val_datasets:
        raise ConfigError("pretrain needs at least one validation dataset")
    seed = train_config.seed
    params = init_params(model_config, derive_seed_int(seed, "init"))
    update = _updater(params, model_config, train_config)
    pools = [
        build_training_pool(ds.observed, derive_seed_int(seed, "pool", ds.name))
        for ds in train_datasets
    ]
    if not any(pools):
        raise DataError("all training pools are empty")
    # one fixed context per validation dataset, by position (names may repeat)
    val_contexts = [
        eval_context_for(ds, model_config, train_config.eval_context_size,
                         derive_seed_int(seed, "val-ctx", ds.name))
        if model_config.mode == MODE_ICL else None
        for ds in val_datasets
    ]
    record = TrainRecord()
    best_params = clone_params(params)
    bad_epochs = 0
    counter = 0
    for epoch in range(1, train_config.max_epochs + 1):
        queries = _epoch_queries(pools, train_config.per_graph_cap, seed, epoch)
        loss_sum, loss_n = 0.0, 0
        try:
            # the whole epoch — updates and validation — aborts as one unit;
            # overflow surfaces as NumericError below, not worth a warning
            with np.errstate(over="ignore", invalid="ignore"):
                for lo in range(0, len(queries), train_config.batch_size):
                    batch = queries[lo : lo + train_config.batch_size]
                    items = [
                        training_item(train_datasets[ds_index], pair, label, model_config,
                                      train_config.context_k,
                                      (seed, "ctx", epoch, counter + j))
                        for j, (ds_index, pair, label) in enumerate(batch)
                    ]
                    counter += len(batch)
                    loss_sum += update(items) * len(items)
                    loss_n += len(items)
                metric = _merged_validation(params, model_config, val_datasets, val_contexts,
                                            train_config.hits_k)
        except NumericError as exc:
            log.warning("pretraining diverged at epoch %d: %s", epoch, exc)
            record.diverged = True
            record.stopped_epoch = epoch
            return best_params, record
        epoch_loss = loss_sum / max(loss_n, 1)
        record.epochs.append((epoch, epoch_loss, metric))
        record.stopped_epoch = epoch
        if metric > record.best_metric:
            record.best_metric = metric
            record.best_epoch = epoch
            best_params = clone_params(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
        log.info("epoch %d loss %.4f val %.4f", epoch, epoch_loss, metric)
        if bad_epochs >= train_config.patience:
            break
    return best_params, record


# ---------------------------------------------------------------------------
# finetuning


def finetune(params: dict, dataset: LinkDataset, n_links: int, steps: int,
             model_config: ModelConfig, train_config: TrainConfig, seed: int = None):
    """Continue optimization on a small pool from one dataset.

    Uses n_links observed edges plus n_links sampled non-edges; `steps`
    counts optimizer updates. Returns (new params, per-step losses); the
    input params are not mutated and steps=0 is an exact no-op.
    """
    if n_links < 1:
        raise ConfigError("n_links must be >= 1")
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    seed = train_config.seed if seed is None else seed
    new_params = clone_params(params)
    if steps == 0:
        return new_params, []
    edges = [tuple(e) for e in dataset.observed.edge_array().tolist()]
    if n_links > len(edges):
        raise DataError(f"n_links={n_links} exceeds {len(edges)} observed edges")
    rng = derive_rng(seed, "finetune-pos")
    picks = rng.permutation(len(edges))[:n_links]
    positives = [edges[i] for i in picks]
    negatives = sample_nonedges(
        dataset.observed, n_links, derive_seed_int(seed, "finetune-neg"),
        exclude=dataset.full_edges,
    )
    pool = [(p, 1.0) for p in positives] + [(p, 0.0) for p in negatives]
    update = _updater(new_params, model_config, train_config)
    batches = _shuffled_batches(len(pool), train_config.batch_size, seed)
    losses = []
    for step_index, take in enumerate(itertools.islice(batches, steps)):
        items = [
            training_item(dataset, *pool[i], model_config, train_config.context_k,
                          (seed, "finetune-ctx", step_index, int(i)))
            for i in take
        ]
        losses.append(update(items))
    return new_params, losses


def _shuffled_batches(pool_size: int, batch_size: int, seed: int):
    """Endless batches of pool positions, freshly shuffled for each pass."""
    for pass_index in itertools.count():
        order = derive_rng(seed, "finetune-shuffle", pass_index).permutation(pool_size)
        for lo in range(0, pool_size, batch_size):
            yield order[lo : lo + batch_size]


# ---------------------------------------------------------------------------
# transfer probe


@dataclass(frozen=True)
class TransferResult:
    """Paired comparison of training with and without an extra graph."""

    seed: int
    baseline_hits: float
    augmented_hits: float

    @property
    def delta(self) -> float:
        return self.augmented_hits - self.baseline_hits


def transfer_probe(target: Graph, extra: Graph, model_config: ModelConfig,
                   train_config: TrainConfig, fractions=(0.7, 0.1, 0.2),
                   seed: int = 0) -> TransferResult:
    """Does adding `extra` as a training source help or hurt on `target`?

    Both arms share one target dataset (so the same split and test pairs),
    seeds, and schedule; the augmented arm additionally draws training
    queries from the whole of `extra`. The probe is defined for the plain
    supervised mode only, where "more data" is the entire intervention.
    """
    if model_config.mode != MODE_NO_CONTEXT:
        raise ConfigError("transfer_probe requires no_context mode")
    split = split_edges(target, fractions, derive_seed_int(seed, "probe-split"))
    if not split.test_pos:
        raise DataError(f"target has an empty test slice at fractions {tuple(fractions)}")
    arm_config = replace(train_config, seed=derive_seed_int(seed, "probe-train"))
    ds_target = LinkDataset(name="target", split=split)
    ds_extra = LinkDataset.whole_graph("extra", extra)
    params_base, _ = pretrain([ds_target], [ds_target], model_config, arm_config)
    params_aug, _ = pretrain([ds_target, ds_extra], [ds_target], model_config, arm_config)

    from .evaluation import hits_at_k, score_pairs

    pos, neg = list(split.test_pos), list(split.test_neg)
    k_eff = min(train_config.hits_k, len(neg))
    results = []
    for arm_params in (params_base, params_aug):
        scores = score_pairs(arm_params, model_config, ds_target, pos + neg, None)
        results.append(hits_at_k(scores[: len(pos)], scores[len(pos) :], k_eff))
    return TransferResult(seed=seed, baseline_hits=results[0], augmented_hits=results[1])
