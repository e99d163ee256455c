"""Link predictor with in-context adaptation.

Every candidate link becomes a labeled ego subgraph (see labeling). A shared
message-passing encoder maps subgraphs to vectors. In "icl" mode the query
vector attends over encoded context links, sampled from the observed graph
with known labels; attention looks only at structure (the query/context
embeddings), while the label of each context member enters additively just
before the value projection. The contextualized query then passes through a
small MLP to a probability. In "no_context" mode the value projection is
applied to the query embedding directly and the MLP scores it; nothing is
conditioned on examples, which makes it the plain supervised baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .autodiff import PROB_EPS, Tape, Tensor, check_gradients, param, xavier_uniform
from .errors import ConfigError
from .graphs import Graph, generate_sbm, SbmSpec, sample_nonedges
from .labeling import LabelVocab, LabeledSubgraph, labeled_subgraph
from .rng import derive_rng

MODE_ICL = "icl"
MODE_NO_CONTEXT = "no_context"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults are the ones used throughout the tests.

    hidden_dim is the subgraph embedding width, attention_dim the key/value
    width (must be divisible by heads), embed_dim the label embedding width.
    radius and max_per_hop shape every subgraph the model sees: with a cap,
    each BFS hop keeps at most max_per_hop new nodes, drawn from a stream
    seeded by the pair alone, so training, validation and scoring extract
    the same subgraph for the same pair.
    """

    hidden_dim: int = 32
    attention_dim: int = 32
    embed_dim: int = 32
    encoder_layers: int = 3
    mlp_layers: int = 2
    mlp_hidden: int = 32
    heads: int = 1
    radius: int = 1
    drnl_cap: int = 100
    dist_cap: int = 20
    leaky_slope: float = 0.01
    mode: str = MODE_ICL
    max_per_hop: int = None

    def __post_init__(self):
        dims = (
            self.hidden_dim,
            self.attention_dim,
            self.embed_dim,
            self.encoder_layers,
            self.mlp_layers,
            self.mlp_hidden,
            self.heads,
            self.radius,
        )
        if any(int(d) < 1 for d in dims):
            raise ConfigError(f"all model dimensions must be >= 1: {self}")
        if self.attention_dim % self.heads != 0:
            raise ConfigError(
                f"heads={self.heads} must divide attention_dim={self.attention_dim}"
            )
        if self.mode not in (MODE_ICL, MODE_NO_CONTEXT):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.max_per_hop is not None and int(self.max_per_hop) < 1:
            raise ConfigError(f"max_per_hop must be >= 1 or None, got {self.max_per_hop}")

    @property
    def vocab(self) -> LabelVocab:
        return LabelVocab(drnl_cap=self.drnl_cap, dist_cap=self.dist_cap)

    @property
    def extraction(self) -> dict:
        """Keyword arguments of LinkDataset.subgraph and build_context: how
        every query and context link is extracted."""
        return {"radius": self.radius, "max_per_hop": self.max_per_hop}

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"bad model config: {exc}")


@dataclass(frozen=True)
class ContextSet:
    """Encoded-later bundle of example links with known labels.

    positives/negatives hold labeled subgraphs extracted with the target
    edge removed; `source` records where the members came from so perturbed
    contexts stay distinguishable in reports.
    """

    positives: tuple
    negatives: tuple
    source: str = "target-graph"

    def __post_init__(self):
        for sub in tuple(self.positives) + tuple(self.negatives):
            if sub.labels is None:
                raise ConfigError("context members must be labeled subgraphs")

    @property
    def size(self) -> int:
        return len(self.positives) + len(self.negatives)

    def pairs(self) -> set:
        return {s.pair for s in self.positives} | {s.pair for s in self.negatives}


def init_params(config: ModelConfig, seed: int) -> dict:
    """Fresh parameter dict; every array drawn from its own named stream."""
    F, Fp, F0 = config.hidden_dim, config.attention_dim, config.embed_dim

    def draw(name, shape, kind):
        rng = derive_rng(seed, "init", name)
        if kind == "xavier":
            return param(xavier_uniform(shape, rng))
        if kind == "normal":
            return param(rng.normal(0.0, 0.1, size=shape))
        return param(np.zeros(shape))

    params = {"embed.table": draw("embed.table", (config.vocab.size, F0), "normal")}
    in_dim = F0
    for layer in range(config.encoder_layers):
        params[f"enc.{layer}.self"] = draw(f"enc.{layer}.self", (in_dim, F), "xavier")
        params[f"enc.{layer}.neigh"] = draw(f"enc.{layer}.neigh", (in_dim, F), "xavier")
        in_dim = F
    params["attn.key"] = draw("attn.key", (2 * F, Fp), "xavier")
    params["attn.vec"] = draw("attn.vec", (Fp,), "xavier")
    params["attn.value"] = draw("attn.value", (F, Fp), "xavier")
    params["label.pos"] = draw("label.pos", (F,), "normal")
    params["label.neg"] = draw("label.neg", (F,), "normal")
    in_dim = Fp
    for layer in range(config.mlp_layers):
        out_dim = 1 if layer == config.mlp_layers - 1 else config.mlp_hidden
        params[f"mlp.{layer}.w"] = draw(f"mlp.{layer}.w", (in_dim, out_dim), "xavier")
        params[f"mlp.{layer}.b"] = draw(f"mlp.{layer}.b", (out_dim,), "zeros")
        in_dim = out_dim
    return params


# ---------------------------------------------------------------------------
# encoder


def _assemble_batch(subs, vocab: LabelVocab):
    """Stack subgraphs into one disjoint block: label indices, the constant
    neighbor-mean operator, and the constant per-subgraph mean-pool operator.

    Built from the subgraphs' flat forms with array operations; row i of the
    neighbor-mean operator holds 1/deg(i) at each neighbor's column (isolated
    nodes keep an all-zero row), row s of the pool operator 1/n_s at each
    node of subgraph s."""
    if not subs:
        raise ConfigError("cannot encode an empty list of subgraphs")
    if any(sub.labels is None for sub in subs):
        raise ConfigError("subgraph must be labeled before encoding")
    sizes = np.fromiter((sub.n for sub in subs), dtype=np.int64, count=len(subs))
    total = int(sizes.sum())

    def flat(slot, count):
        return np.fromiter(chain.from_iterable(sub.flat[slot] for sub in subs), dtype=np.int64,
                           count=count)

    idx = vocab.indices(flat(0, total), flat(1, total))
    deg = flat(2, total)
    n_cols = int(deg.sum())
    offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
    cols = flat(3, n_cols) + np.repeat(offsets, deg)
    weights = np.repeat(1.0 / np.maximum(deg, 1), deg)  # isolated rows repeat 0 times
    indptr = np.concatenate(([0], np.cumsum(deg)))
    agg = sp.csr_matrix((weights, cols, indptr), shape=(total, total))
    pool = sp.csr_matrix(
        (np.repeat(1.0 / sizes, sizes), np.arange(total), np.concatenate(([0], np.cumsum(sizes)))),
        shape=(len(subs), total),
    )
    return idx, agg, pool


def encode_subgraphs(params: dict, config: ModelConfig, subs, tape: Tape) -> Tensor:
    """Encode a list of labeled subgraphs; returns an (len(subs), F) tensor."""
    idx, agg, pool = _assemble_batch(subs, config.vocab)
    h = tape.take_rows(params["embed.table"], idx)
    for layer in range(config.encoder_layers):
        own = tape.matmul(h, params[f"enc.{layer}.self"])
        nbr = tape.matmul(tape.spmm(agg, h), params[f"enc.{layer}.neigh"])
        h = tape.leaky_relu(tape.add(own, nbr), config.leaky_slope)
    return tape.spmm(pool, h)


def encode_subgraph(params: dict, config: ModelConfig, sub: LabeledSubgraph, tape: Tape = None) -> Tensor:
    """Single-subgraph embedding as a 1-D tensor of width hidden_dim."""
    tape = tape if tape is not None else Tape()
    h = encode_subgraphs(params, config, [sub], tape)
    return tape.reshape(h, (config.hidden_dim,))


# ---------------------------------------------------------------------------
# attention and prediction


def attention_scores(params: dict, config: ModelConfig, h_query: Tensor, h_context: Tensor, tape: Tape):
    """Per-head softmax weights over all context members jointly.

    Scores depend only on the query and context embeddings, never on the
    positive/negative designation of the members. Returns a list with one
    (m,) tensor per head.
    """
    if h_context.values.ndim != 2 or h_context.values.shape[0] == 0:
        raise ConfigError("attention needs at least one context member")
    m = h_context.values.shape[0]
    keys_in = tape.concat(tape.tile_rows(h_query, m), h_context)
    z = tape.leaky_relu(tape.matmul(keys_in, params["attn.key"]), config.leaky_slope)
    width = config.attention_dim // config.heads
    alphas = []
    for head in range(config.heads):
        lo, hi = head * width, (head + 1) * width
        # dot_rows keeps each member's score independent of the others, so
        # reordering the context permutes the weights bit-exactly
        scores = tape.dot_rows(
            tape.slice_last(z, lo, hi), tape.slice_last(params["attn.vec"], lo, hi)
        )
        alphas.append(tape.softmax(scores))
    return alphas


def contextualize(params: dict, config: ModelConfig, alphas, h_context: Tensor, n_pos: int, tape: Tape) -> Tensor:
    """Attention-weighted sum of value-projected context embeddings, with the
    positive/negative label vector added to each member before projection."""
    m = h_context.values.shape[0]
    n_pos = int(n_pos)
    if not 0 <= n_pos <= m:
        raise ConfigError(f"n_pos={n_pos} out of range for context of size {m}")
    values = []
    if n_pos > 0:
        rows = tape.take_rows(h_context, np.arange(n_pos))
        values.append((0, n_pos, tape.matmul(tape.add(rows, params["label.pos"]), params["attn.value"])))
    if n_pos < m:
        rows = tape.take_rows(h_context, np.arange(n_pos, m))
        values.append((n_pos, m, tape.matmul(tape.add(rows, params["label.neg"]), params["attn.value"])))
    width = config.attention_dim // config.heads
    head_outputs = []
    for head, alpha in enumerate(alphas):
        lo, hi = head * width, (head + 1) * width
        part = None
        for start, stop, projected in values:
            term = tape.matmul(
                tape.slice_last(alpha, start, stop), tape.slice_last(projected, lo, hi)
            )
            part = term if part is None else tape.add(part, term)
        head_outputs.append(part)
    out = head_outputs[0]
    for extra in head_outputs[1:]:
        out = tape.concat(out, extra)
    return out


def predict(params: dict, config: ModelConfig, h_tilde: Tensor, tape: Tape) -> Tensor:
    """MLP over the contextualized query, squashed to a probability in
    (0, 1); shape (1,)."""
    z = h_tilde
    for layer in range(config.mlp_layers):
        z = tape.add(tape.matmul(z, params[f"mlp.{layer}.w"]), params[f"mlp.{layer}.b"])
        if layer < config.mlp_layers - 1:
            z = tape.leaky_relu(z, config.leaky_slope)
    return tape.clamp(tape.sigmoid(z), PROB_EPS, 1.0 - PROB_EPS)


# ---------------------------------------------------------------------------
# full forward pass


def _predict_from_subgraphs(params, config, query_sub, context, tape) -> Tensor:
    if config.mode == MODE_NO_CONTEXT:
        h_q = encode_subgraph(params, config, query_sub, tape)
        h_tilde = tape.matmul(h_q, params["attn.value"])
        return predict(params, config, h_tilde, tape)
    if context is None or context.size == 0:
        raise ConfigError("icl mode requires a non-empty context")
    subs = [query_sub] + list(context.positives) + list(context.negatives)
    h_all = encode_subgraphs(params, config, subs, tape)
    h_q = tape.reshape(tape.take_rows(h_all, [0]), (config.hidden_dim,))
    h_ctx = tape.take_rows(h_all, np.arange(1, len(subs)))
    alphas = attention_scores(params, config, h_q, h_ctx, tape)
    h_tilde = contextualize(params, config, alphas, h_ctx, len(context.positives), tape)
    return predict(params, config, h_tilde, tape)


def forward(
    params: dict,
    config: ModelConfig,
    g: Graph,
    query,
    context: ContextSet = None,
    tape: Tape = None,
    query_sub: LabeledSubgraph = None,
) -> Tensor:
    """Probability that `query` is a link of g, shape (1,).

    The query subgraph is extracted from g with the target edge removed (a
    no-op for unobserved pairs); pass query_sub to reuse a cached extraction.
    In no_context mode any provided context is ignored.
    """
    tape = tape if tape is not None else Tape()
    if query_sub is None:
        query_sub = labeled_subgraph(g, query, remove_target=True, **config.extraction)
    return _predict_from_subgraphs(params, config, query_sub, context, tape)


def batch_loss(params: dict, config: ModelConfig, items, tape: Tape) -> Tensor:
    """Mean binary cross-entropy over (query_sub, context, label) triples.

    All subgraphs in the batch are encoded in one stacked pass; attention
    and prediction then run per query on the shared embedding matrix.
    """
    if not items:
        raise ConfigError("batch_loss needs at least one item")
    subs = []
    layout = []
    for query_sub, context, label in items:
        qi = len(subs)
        subs.append(query_sub)
        if config.mode == MODE_ICL:
            if context is None or context.size == 0:
                raise ConfigError("icl mode requires a non-empty context")
            ci = len(subs)
            subs.extend(context.positives)
            subs.extend(context.negatives)
            layout.append((qi, ci, len(context.positives), context.size, label))
        else:
            layout.append((qi, None, 0, 0, label))
    h_all = encode_subgraphs(params, config, subs, tape)
    total = None
    for qi, ci, n_pos, size, label in layout:
        h_q = tape.reshape(tape.take_rows(h_all, [qi]), (config.hidden_dim,))
        if ci is None:
            h_tilde = tape.matmul(h_q, params["attn.value"])
        else:
            h_ctx = tape.take_rows(h_all, np.arange(ci, ci + size))
            alphas = attention_scores(params, config, h_q, h_ctx, tape)
            h_tilde = contextualize(params, config, alphas, h_ctx, n_pos, tape)
        loss = tape.bce(predict(params, config, h_tilde, tape), label)
        total = loss if total is None else tape.add(total, loss)
    return tape.scale(total, 1.0 / len(items))


# ---------------------------------------------------------------------------
# gradient verification harness (also driven by the CLI)

GRADCHECK_CONFIG = ModelConfig(
    hidden_dim=8,
    attention_dim=8,
    embed_dim=8,
    encoder_layers=2,
    mlp_layers=2,
    mlp_hidden=8,
    heads=1,
    radius=1,
    drnl_cap=12,
    dist_cap=6,
)


def model_gradient_check(seed: int, config: ModelConfig = GRADCHECK_CONFIG, h: float = 1e-5) -> float:
    """End-to-end gradient fidelity of the full forward pass.

    Builds a small random graph, one query with a two-positive/two-negative
    context, and compares tape gradients of the BCE loss against central
    finite differences over every parameter entry. Returns the max relative
    error.
    """
    g = generate_sbm(SbmSpec(block_sizes=(12,), p_in=0.35, p_out=0.0), seed=seed)
    edges = [tuple(e) for e in g.edge_array().tolist()]
    if len(edges) < 3:
        g = generate_sbm(SbmSpec(block_sizes=(12,), p_in=0.6, p_out=0.0), seed=seed + 1)
        edges = [tuple(e) for e in g.edge_array().tolist()]
    query = edges[0]
    positives = edges[1:3]
    negatives = sample_nonedges(g, 2, seed)
    make = lambda pair: labeled_subgraph(g, pair, remove_target=True, **config.extraction)
    query_sub = make(query)
    context = None
    if config.mode == MODE_ICL:
        context = ContextSet(
            positives=tuple(make(p) for p in positives),
            negatives=tuple(make(p) for p in negatives),
        )
    params = init_params(config, seed)

    def loss_fn(ps, tape):
        prob = _predict_from_subgraphs(ps, config, query_sub, context, tape)
        return tape.bce(prob, 1.0)

    return check_gradients(loss_fn, params, h=h)
