"""Link predictor with in-context adaptation.

Every candidate link becomes a labeled ego subgraph (see labeling). A shared
mean-aggregation encoder maps subgraphs to vectors with one row per distinct
Weisfeiler-Lehman colour of a batch and layer, not per node; its first layer
runs on the label vocabulary table (122 rows by default). In "icl" mode the query
vector attends over encoded context links, sampled from the observed graph
with known labels; attention looks only at structure (the query/context
embeddings), while the label of each context member enters additively just
before the value projection. The contextualized query then passes through a
small MLP to a probability. In "no_context" mode the value projection is
applied to the query embedding directly and the MLP scores it; nothing is
conditioned on examples, which makes it the plain supervised baseline.

Training, scoring and the single-query `forward` share one batched path,
`predict_batch`, with one input layout: B query embeddings (B, F) attend
over a context block (C, m, F). C is B in training and `forward`, one
context per query, and every context of a batch has the same size and
number of positives; C is 1 in scoring, one context that broadcasts to all
queries. Attention, contextualization and the MLP each run once per batch.
The attention key of member i is leaky_relu([h_q, h_i] @ attn.key), with
attn.key one (2F, F') parameter: its query half is applied to each query as
a (1, F) row, its context half to each context as one (m, F) gemm (once per
batch when the context is shared). One op, `Tape.key_scores`, sums the two
halves, activates them and reduces each member's key per head, a few
queries at a time, so scoring never builds the (B, m, F') key block. Every
op is a stack whose entries make the same BLAS call and the same reduction
a single query would, or is elementwise, so a query's probability does not
depend on the batch it is scored in, and permuting a context permutes its
attention weights bit for bit. A training batch (`batch_loss`) and a scored
chunk (`evaluation.score_pairs`) each encode every distinct subgraph content
once, keyed on `LabeledSubgraph.content` (labels and adjacency, which is all
the encoder reads) by `distinct_contents`, and gather rows for repeats:
equal contents give equal rows bit for bit, so forward values are those of
encoding every use.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .autodiff import PROB_EPS, Tape, Tensor, check_gradients, param, xavier_uniform
from .errors import ConfigError, check_number_fields
from .graphs import Graph, generate_sbm, SbmSpec, sample_nonedges
from .labeling import LabelVocab, labeled_subgraph
from .rng import derive_rng

MODE_ICL = "icl"
MODE_NO_CONTEXT = "no_context"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults are the ones used throughout the tests.

    hidden_dim is the subgraph embedding width, attention_dim the key/value
    width (must be divisible by heads), embed_dim the label embedding width.
    radius and max_per_hop are the one definition of how every query and
    context link is extracted (`LinkDataset.subgraph`): with a cap, each BFS
    hop keeps at most max_per_hop new nodes, drawn from a stream seeded by
    the pair alone, so training, validation and scoring extract the same
    subgraph for the same pair. Integer fields reject non-int values, and
    leaky_slope must be a real number in [0, 1].
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
        dims = ("hidden_dim", "attention_dim", "embed_dim", "encoder_layers", "mlp_layers",
                "mlp_hidden", "heads", "radius")
        hop_cap = () if self.max_per_hop is None else ("max_per_hop",)
        check_number_fields(self, ints=dims + ("drnl_cap", "dist_cap") + hop_cap,
                            reals=("leaky_slope",))
        if any(getattr(self, name) < 1 for name in dims):
            raise ConfigError(f"all model dimensions must be >= 1: {self}")
        if not 0 <= self.leaky_slope <= 1:
            raise ConfigError(f"leaky_slope must be in [0, 1], got {self.leaky_slope}")
        if self.attention_dim % self.heads != 0:
            raise ConfigError(
                f"heads={self.heads} must divide attention_dim={self.attention_dim}"
            )
        if self.mode not in (MODE_ICL, MODE_NO_CONTEXT):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.max_per_hop is not None and self.max_per_hop < 1:
            raise ConfigError(f"max_per_hop must be >= 1 or None, got {self.max_per_hop}")

    @property
    def vocab(self) -> LabelVocab:
        return LabelVocab(drnl_cap=self.drnl_cap, dist_cap=self.dist_cap)

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
    """Example links with known labels, encoded later: labeled subgraphs
    extracted with the target edge removed, positives first."""

    positives: tuple
    negatives: tuple

    @property
    def size(self) -> int:
        return len(self.positives) + len(self.negatives)


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


def _count_operator(rows, cols, denom, shape):
    """CSR operator with count / denom[row] at each distinct (row, col) of
    multiplicity count; columns ascend, so a row sums in column order."""
    code, count = np.unique(rows * shape[1] + cols, return_counts=True)
    rows, cols = np.divmod(code, shape[1])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sp.csr_matrix((count / denom[rows], cols, indptr), shape=shape)


def _refine(colour, deg, groups, owner, nbrs, n_colours):
    """One round of colour refinement: a node's new colour is the rank of
    its key (degree, colour, sorted neighbour colours) among the batch's
    keys, built per degree group at its own length. Returns the new colours,
    each one's old colour and the neighbour-mean operator between the two."""
    new, count = np.empty_like(colour), 0
    for group, rows in groups:
        keys = np.column_stack((colour[group], np.sort(colour[rows], axis=1)))
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        new[group[order]] = count + np.cumsum(first) - 1
        count += int(first.sum())
    # a colour's nodes share old colour, degree and neighbour multiset, so over
    # all entries count / (size * degree) is multiplicity / degree, rounded alike
    parent, width = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
    parent[new], width[new] = colour, deg
    agg = _count_operator(new[owner], colour[nbrs], np.bincount(new) * width, (count, n_colours))
    return new, parent, agg


def _gemm(tape: Tape, x: Tensor, w: Tensor) -> Tensor:
    """x @ w by gemm: numpy would multiply a lone row by gemv, which sums in
    another order, so a lone row goes in as the first of two."""
    if x.shape[0] > 1:
        return tape.matmul(x, w)
    return tape.take_rows(tape.matmul(tape.take_rows(x, [0, 0]), w), [0])


def encode_subgraphs(params: dict, config: ModelConfig, subs, tape: Tape) -> Tensor:
    """Encode a list of labeled subgraphs; returns an (len(subs), F) tensor.

    Mean aggregation gives all nodes of one Weisfeiler-Lehman colour one
    state, so layer k runs once per depth-(k + 1) colour of the batch. Depth
    0 is the label's vocabulary index (layer 0 acts on embed.table); a
    colour's own term is its parent colour's row, its neighbour term a
    count-weighted mean over colours, and the pool weighs subgraph s's
    colours by count / n_s. Colour ids rank sorted keys, so every sum runs
    in an order the keys set, and a subgraph's row is the same in any batch.
    """
    if not subs:
        raise ConfigError("cannot encode an empty list of subgraphs")
    sizes = np.fromiter((sub.n for sub in subs), dtype=np.int64, count=len(subs))
    total = int(sizes.sum())
    labels = np.fromiter(chain.from_iterable(chain.from_iterable(sub.labels for sub in subs)),
                         dtype=np.int64, count=2 * total).reshape(total, 2)
    colour = config.vocab.indices(labels[:, 0], labels[:, 1])
    deg = np.fromiter(map(len, chain.from_iterable(sub.adj for sub in subs)), dtype=np.int64,
                      count=total)
    nbrs = np.fromiter(chain.from_iterable(chain.from_iterable(sub.adj for sub in subs)),
                       dtype=np.int64, count=int(deg.sum()))
    owner = np.repeat(np.arange(total), deg)
    nbrs += np.repeat(np.cumsum(sizes) - sizes, sizes)[owner]
    by_deg, starts = np.argsort(deg, kind="stable"), np.cumsum(deg) - deg
    groups = [(group, nbrs[starts[group, None] + np.arange(deg[group[0]])])
              for group in np.split(by_deg, np.flatnonzero(np.diff(deg[by_deg])) + 1)]
    h = params["embed.table"]
    for layer in range(config.encoder_layers):
        colour, parent, agg = _refine(colour, deg, groups, owner, nbrs, h.shape[0])
        own = tape.take_rows(_gemm(tape, h, params[f"enc.{layer}.self"]), parent)
        nbr = tape.spmm(agg, _gemm(tape, h, params[f"enc.{layer}.neigh"]))
        h = tape.leaky_relu(tape.add(own, nbr), config.leaky_slope)
    owner = np.repeat(np.arange(len(subs)), sizes)
    return tape.spmm(_count_operator(owner, colour, sizes, (len(subs), h.shape[0])), h)


# ---------------------------------------------------------------------------
# attention and prediction


def attention_scores(params: dict, config: ModelConfig, h_query: Tensor, h_context: Tensor, tape: Tape):
    """Per-head softmax weights over all context members jointly.

    Scores depend only on the query and context embeddings, never on the
    positive/negative designation of the members. h_query is (B, F) and
    h_context (C, m, F), with C = B (one context per query) or C = 1 (one
    context shared by every query); returns a (B, heads, m) tensor. A lone
    query (F,) with an (m, F) context is reshaped into that form, and gives
    a list with one (m,) tensor per head.
    """
    lone = h_query.values.ndim == 1
    if lone:
        h_query = tape.reshape(h_query, (1,) + h_query.shape)
        h_context = tape.reshape(h_context, (1,) + h_context.shape)
    batch, width = h_query.shape[0], config.attention_dim // config.heads
    if len(h_context.shape) != 3 or h_context.shape[1] == 0:
        raise ConfigError(f"attention needs a (C, m, F) context with m >= 1, got {h_context.shape}")
    if h_context.shape[0] not in (1, batch):
        raise ConfigError(f"{batch} queries but {h_context.shape[0]} contexts")
    m, dim = h_context.shape[1], h_query.shape[-1]
    # a member's key input is [h_query, h_member] @ attn.key: the two halves
    # are projected apart, each query once as a (1, F) row and each context
    # once as an (m, F) gemm; key_scores sums them tile by tile
    key = params["attn.key"]
    query_key = tape.matmul(tape.reshape(h_query, (batch, 1, dim)), tape.take_rows(key, np.arange(dim)))
    context_key = tape.matmul(h_context, tape.take_rows(key, np.arange(dim, 2 * dim)))
    # each member's score is one row reduction of its own key, so reordering
    # the context permutes the weights bit-exactly
    vec = tape.reshape(params["attn.vec"], (config.heads, width))
    scores = tape.key_scores(query_key, context_key, vec, config.leaky_slope)
    alpha = tape.softmax(tape.transpose(scores, (0, 2, 1)))
    if not lone:
        return alpha
    flat = tape.reshape(alpha, (config.heads * m,))
    return [tape.slice_last(flat, h * m, (h + 1) * m) for h in range(config.heads)]


def contextualize(params: dict, config: ModelConfig, alphas: Tensor, h_context: Tensor, n_pos: int,
                  tape: Tape) -> Tensor:
    """Attention-weighted sum of value-projected context embeddings, with the
    positive/negative label vector added to each member before projection.

    alphas is attention_scores' (B, heads, m) output for the context
    h_context, (C, m, F) with C = B or 1, whose first n_pos members are the
    positives; returns (B, attention_dim).
    """
    batch, heads, m = alphas.shape
    n_pos = int(n_pos)
    if not 0 <= n_pos <= m:
        raise ConfigError(f"n_pos={n_pos} out of range for context of size {m}")
    contexts, dim = h_context.shape[0], h_context.shape[-1]
    width = config.attention_dim // heads
    flat = tape.reshape(h_context, (contexts * m, dim))
    out = None
    for start, stop, label in ((0, n_pos, "label.pos"), (n_pos, m, "label.neg")):
        n = stop - start
        if n == 0:
            continue
        picks = (np.arange(contexts)[:, None] * m + np.arange(start, stop)).ravel()
        rows = tape.reshape(tape.take_rows(flat, picks), (contexts, n, dim))
        projected = tape.matmul(tape.add(rows, params[label]), params["attn.value"])
        # (C, n, heads, width) -> (C, heads, n, width): every query and head
        # is one (n,) @ (n, width) product over strided columns
        values = tape.transpose(tape.reshape(projected, (contexts, n, heads, width)), (0, 2, 1, 3))
        weights = tape.reshape(tape.slice_last(alphas, start, stop), (batch, heads, 1, n))
        term = tape.matmul(weights, values)
        out = term if out is None else tape.add(out, term)
    return tape.reshape(out, (batch, heads * width))


def predict(params: dict, config: ModelConfig, h_tilde: Tensor, tape: Tape) -> Tensor:
    """MLP over contextualized queries, squashed to probabilities in (0, 1):
    (B, attention_dim) -> (B,)."""
    batch, dim = h_tilde.shape
    # (B, 1, K) stacks: each layer is one vector-matrix product per query
    z = tape.reshape(h_tilde, (batch, 1, dim))
    for layer in range(config.mlp_layers):
        z = tape.add(tape.matmul(z, params[f"mlp.{layer}.w"]), params[f"mlp.{layer}.b"])
        if layer < config.mlp_layers - 1:
            z = tape.leaky_relu(z, config.leaky_slope)
    return tape.reshape(tape.clamp(tape.sigmoid(z), PROB_EPS, 1.0 - PROB_EPS), (batch,))


def predict_batch(params: dict, config: ModelConfig, h_query: Tensor, h_context, n_pos: int,
                  tape: Tape) -> Tensor:
    """Probabilities (B,) for query embeddings (B, F).

    In icl mode the queries attend over h_context, (B, m, F) or (1, m, F)
    shared, whose first n_pos members are positives. In no_context mode the
    context is ignored and the value projection applies to each query.
    """
    if config.mode == MODE_NO_CONTEXT:
        batch, dim = h_query.shape
        projected = tape.matmul(tape.reshape(h_query, (batch, 1, dim)), params["attn.value"])
        h_tilde = tape.reshape(projected, (batch, config.attention_dim))
    else:
        alphas = attention_scores(params, config, h_query, h_context, tape)
        h_tilde = contextualize(params, config, alphas, h_context, n_pos, tape)
    return predict(params, config, h_tilde, tape)


# ---------------------------------------------------------------------------
# full forward pass


def distinct_contents(subs) -> tuple:
    """The subgraphs of distinct content (`LabeledSubgraph.content`), first
    of each in first-seen order, and per input subgraph the position of its
    content among them: encoding the first list and gathering the positions
    gives every input's row, bit for bit."""
    index, distinct, picks = {}, [], []
    for sub in subs:
        i = index.setdefault(sub.content, len(index))
        if i == len(distinct):
            distinct.append(sub)
        picks.append(i)
    return distinct, picks


def _item_probabilities(params, config, pairs, tape) -> Tensor:
    """Probabilities (B,) for (query_sub, context) pairs, in order.

    Each distinct subgraph content (`LabeledSubgraph.content`) is encoded
    once and its row gathered for every use, so the gradients of repeats
    add up in the gather. In icl mode every context of the batch has the
    same size and number of positives, and the batch runs through
    predict_batch once.
    """
    queries = [query_sub for query_sub, _ in pairs]
    contexts = [context for _, context in pairs] if config.mode == MODE_ICL else []
    if any(context is None or context.size == 0 for context in contexts):
        raise ConfigError("icl mode requires a non-empty context")
    shapes = {(context.size, len(context.positives)) for context in contexts}
    if len(shapes) > 1:
        raise ConfigError(f"a batch needs one context shape (size, n_pos), got {sorted(shapes)}")
    members = [sub for context in contexts for sub in chain(context.positives, context.negatives)]
    distinct, picks = distinct_contents(chain(queries, members))
    h_all = encode_subgraphs(params, config, distinct, tape)
    h_ctx, n_pos = None, 0
    if contexts:
        size, n_pos = shapes.pop()
        h_ctx = tape.reshape(tape.take_rows(h_all, picks[len(queries):]),
                             (len(pairs), size, config.hidden_dim))
    h_query = tape.take_rows(h_all, picks[:len(queries)])
    return predict_batch(params, config, h_query, h_ctx, n_pos, tape)


def forward(params: dict, config: ModelConfig, g: Graph, query, context: ContextSet = None,
            tape: Tape = None) -> Tensor:
    """Probability that `query` is a link of g, shape (1,).

    The query subgraph is extracted from g with the target edge removed (a
    no-op for unobserved pairs). In no_context mode any provided context is
    ignored.
    """
    tape = tape if tape is not None else Tape()
    query_sub = labeled_subgraph(g, query, config.radius, max_per_hop=config.max_per_hop)
    return _item_probabilities(params, config, [(query_sub, context)], tape)


def batch_loss(params: dict, config: ModelConfig, items, tape: Tape) -> Tensor:
    """Mean binary cross-entropy over (query_sub, context, label) triples.

    The whole batch is one pass: distinct subgraph contents encoded once, then
    attention and prediction over one (B, m, F) context block, so every
    context must have the same shape; the per-item losses add up left to
    right.
    """
    if not items:
        raise ConfigError("batch_loss needs at least one item")
    probs = _item_probabilities(params, config, [(q, c) for q, c, _ in items], tape)
    return tape.bce(probs, [label for _, _, label in items])


# ---------------------------------------------------------------------------
# gradient verification harness (also driven by the CLI)

GRADCHECK_CONFIG = ModelConfig(hidden_dim=8, attention_dim=8, embed_dim=8, encoder_layers=2,
                               mlp_layers=2, mlp_hidden=8, heads=1, radius=1, drnl_cap=12, dist_cap=6)


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
    make = lambda pair: labeled_subgraph(g, pair, config.radius, max_per_hop=config.max_per_hop)
    query_sub = make(query)
    context = None
    if config.mode == MODE_ICL:
        context = ContextSet(
            positives=tuple(make(p) for p in positives),
            negatives=tuple(make(p) for p in negatives),
        )
    params = init_params(config, seed)

    def loss_fn(ps, tape):
        return batch_loss(ps, config, [(query_sub, context, 1.0)], tape)

    return check_gradients(loss_fn, params, h=h)
