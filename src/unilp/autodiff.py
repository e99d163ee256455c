"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A `Tape` records every operation; `Tape.backward(loss)` replays the records
in reverse creation order (a valid reverse-topological order) exactly once
and accumulates gradients into each tensor's `.grad` slot. Only the ops the
model needs exist. Each gives `_emit` one gradient function per operand,
mapping the output's gradient to that operand's contribution; `_emit` drops
the operands that need no gradient, and `backward` applies the kept
functions in operand order and does all the accumulating. Every op that
computes values checks its output for finiteness, so numeric blowups surface
at their source (`reshape` and `transpose` only re-view their input's values).

Constant matrices that never need gradients (neighbor-averaging and pooling
operators) enter through `spmm` as scipy CSR matrices; everything
differentiable is dense numpy.

The model runs a whole batch of queries through one sequence of ops, so
`matmul`, `add`, `softmax`, `slice_last` and `bce` also take stacked (N-D)
operands, broadcasting leading axes the way numpy does, and `transpose`
permutes axes. Stacked matmuls call the same BLAS routine per stack entry
as the 1-D/2-D form would, and reductions run over a C-contiguous last
axis, so a batched forward pass reproduces the per-query values bit for
bit. `key_scores` fuses the attention scores' add, leaky_relu and per-row
dot product into one op that runs over a few queries at a time, so the
(B, m, F') key block is never built whole when scoring; it gives the
unfused chain's values and gradients bit for bit. The unfused chain's
`dot_rows`, and the other ops the tests' reference definitions of the model
use (`scale`, `concat`), live with those references in the tests.

Gradients are stored without copies: a gradient function's array (or a
view of it) may become the `.grad` of several tensors at once, so no stored
gradient is ever modified in place. A second contribution makes a new array,
and every stored gradient is marked read-only.

An op is recorded only when some operand needs a gradient. Scoring wraps the
parameters with `const`, so its forward passes record no graph, and each
intermediate is freed as soon as the next op is done with it.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericError
from .graphs import write_json_atomic

#: Format 2 stores each parameter's values as base64 of its little-endian
#: float64 bytes; format 1, still read, stored them as a decimal JSON list.
CHECKPOINT_VERSION = 2

#: Probabilities are clamped into [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-12

#: Elements of the (B, m, F') key block that Tape.key_scores builds at once
#: (3 queries at m = 400, F' = 48; never fewer than one query).
KEY_SCORES_TILE = 1 << 16

#: Adam's moment decay rates and the term that keeps its denominator nonzero.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Tensor:
    """Value node. Leaf parameters carry requires_grad=True; everything else
    is either a constant or an op output owned by some Tape."""

    __slots__ = ("values", "grad", "requires_grad", "_needs", "_grads")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._needs = self.requires_grad
        # (operand, gradient function) for each operand that needs a gradient
        self._grads = ()

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ConfigError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def param(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def const(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def _accumulate(t: Tensor, g: np.ndarray):
    if g.shape != t.values.shape:
        raise ConfigError(f"gradient shape {g.shape} != value shape {t.values.shape}")
    # stored uncopied, so possibly shared (see the module docstring); asarray
    # only wraps the numpy scalar a 0-d product gives
    t.grad = np.asarray(g if t.grad is None else t.grad + g)
    t.grad.flags.writeable = False


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to an operand's shape."""
    shape = tuple(shape)
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _broadcast_shape(op: str, *shapes) -> tuple:
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise ConfigError(f"{op} shapes incompatible: {' and '.join(map(str, shapes))}")


class Tape:
    """Operation recorder. One tape per forward pass; discard after use."""

    def __init__(self):
        self._nodes: list[Tensor] = []

    # -- plumbing ----------------------------------------------------------

    def _emit(self, values, grads, op: str, check: bool = True) -> Tensor:
        """Wrap an op's output. `grads` holds one (operand, fn) pair per
        operand, where fn(g) is that operand's gradient contribution given
        the output's gradient g; only the pairs whose operand needs a
        gradient are kept, and the output is recorded only if one is."""
        values = np.asarray(values, dtype=np.float64)
        if check and not np.isfinite(values).all():
            raise NumericError(f"non-finite values produced by {op}")
        out = Tensor(values)
        out._grads = tuple((x, fn) for x, fn in grads if x._needs)
        if out._grads:
            out._needs = True
            self._nodes.append(out)
        return out

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf."""
        if loss.values.size != 1:
            raise ConfigError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not loss._needs:
            return
        loss.grad = np.ones_like(loss.values)
        for node in reversed(self._nodes):
            if node.grad is None:
                continue
            # in operand order: an operand used twice (add(x, x)) gets its
            # first contribution, then its second
            for x, fn in node._grads:
                _accumulate(x, fn(node.grad))
        # intermediates die with the tape; drop their grads eagerly
        for node in self._nodes:
            node.grad = None
        self._nodes.clear()

    # -- ops ----------------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """Matrix product with numpy semantics for 1-D and 2-D operands.

        Operands of 3 or more dimensions are stacks of matrices (leading
        axes broadcast, a 2-D operand is shared by every stack entry); each
        entry is one BLAS call, the same one its 2-D form would make.
        """
        av, bv = a.values, b.values
        if av.ndim == 0 or bv.ndim == 0:
            raise ConfigError(f"matmul needs at least 1-D operands, got {av.shape} @ {bv.shape}")
        inner = bv.shape[0] if bv.ndim == 1 else bv.shape[-2]
        if av.shape[-1] != inner:
            raise ConfigError(f"matmul inner dims differ: {av.shape} @ {bv.shape}")
        stacked = max(av.ndim, bv.ndim) > 2
        if stacked:
            if min(av.ndim, bv.ndim) < 2:
                raise ConfigError(f"stacked matmul needs matrix operands, got {av.shape} @ {bv.shape}")
            _broadcast_shape("matmul", av.shape[:-2], bv.shape[:-2])

        if av.ndim >= 2 and bv.ndim == 2:
            # a matrix shared by the whole stack (or a plain 2-D product,
            # where the reshapes are no-ops): one gemm per gradient
            grads = ((a, lambda g: (g.reshape(-1, g.shape[-1]) @ bv.T).reshape(av.shape)),
                     (b, lambda g: av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])))
        elif stacked:
            grads = ((a, lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)),
                     (b, lambda g: _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)))
        elif av.ndim == 1 and bv.ndim == 2:
            grads = ((a, lambda g: bv @ g), (b, lambda g: np.outer(av, g)))
        elif av.ndim == 2 and bv.ndim == 1:
            grads = ((a, lambda g: np.outer(g, bv)), (b, lambda g: av.T @ g))
        else:
            grads = ((a, lambda g: g * bv), (b, lambda g: g * av))
        return self._emit(av @ bv, grads, "matmul")

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise sum; the operands broadcast the way numpy's do."""
        av, bv = a.values, b.values
        _broadcast_shape("add", av.shape, bv.shape)
        return self._emit(av + bv, ((a, lambda g: _unbroadcast(g, av.shape)),
                                    (b, lambda g: _unbroadcast(g, bv.shape))), "add")

    def leaky_relu(self, x: Tensor, slope: float = 0.01) -> Tensor:
        """x * (1 if x > 0 else slope), for 0 <= slope <= 1.

        The output is max(x, slope * x) and the gradient factor
        max(x > 0, slope), built only when x needs a gradient: for such
        slopes both give the bits of the factor form (also for x = -0.0),
        without the per-element branches of a select on the sign of x.
        """
        slope = float(slope)
        if not 0.0 <= slope <= 1.0:
            raise ConfigError(f"leaky_relu slope must be in [0, 1], got {slope}")
        xv = x.values
        out = np.multiply(xv, slope)
        np.maximum(xv, out, out=out)
        # made here and kept for the gradient function: building it inside
        # that function frees memory earlier, and warm pretraining epochs
        # then slowed down through twice the page faults
        factor = np.maximum(xv > 0, slope) if x._needs else None
        return self._emit(out, ((x, lambda g: g * factor),), "leaky_relu")

    def sigmoid(self, x: Tensor) -> Tensor:
        xv = x.values
        out = np.empty_like(xv, dtype=np.float64)
        pos = xv >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-xv[pos]))
        ex = np.exp(xv[~pos])
        out[~pos] = ex / (1.0 + ex)
        return self._emit(out, ((x, lambda g: g * out * (1.0 - out)),), "sigmoid")

    def softmax(self, x: Tensor) -> Tensor:
        """Softmax over the last axis (every row of a stacked input)."""
        if x.values.ndim == 0 or x.values.shape[-1] == 0:
            raise ConfigError(f"softmax expects a non-empty last axis, got shape {x.shape}")
        # sorting and summing along a C-contiguous last axis gives every row
        # the summation order of the 1-D case; one copy, then every step in
        # place, as each fresh block of a large input is faulted in anew
        out = np.array(x.values, order="C")
        out -= out.max(axis=-1, keepdims=True)
        np.exp(out, out=out)
        # canonical (sorted) summation: permuting the inputs permutes the
        # outputs bit-exactly, which downstream invariance checks rely on
        out /= np.sort(out, axis=-1).sum(axis=-1, keepdims=True)
        return self._emit(out, ((x, lambda g: out * (g - (g * out).sum(axis=-1, keepdims=True))),), "softmax")

    def key_scores(self, query_key: Tensor, context_key: Tensor, vec: Tensor, slope: float) -> Tensor:
        """Per-head attention scores dot_rows(leaky_relu(query_key +
        context_key), vec), computed a few queries at a time.

        query_key is (B, 1, F'), context_key (C, m, F') with C = B or 1 (one
        context shared by every query), vec (H, k) with H * k = F'; returns
        (B, m, H). Each tile of about KEY_SCORES_TILE elements of the
        (B, m, F') key block is summed, activated and reduced in reused
        buffers, so scoring never holds the whole block. Every step is
        elementwise or reduces within one row (the einsum of dot_rows), so
        the values are those of the unfused chain, bit for bit, for any tile
        size. When an operand needs a gradient the activations and the
        factor max(z > 0, slope) are kept at full size, and the gradient
        functions run the unfused chain's expressions, so gradients are
        bit-identical too.

        Only the output is checked for finiteness. Every key entry lies in
        exactly one (member, head) row, and a non-finite entry (from a
        non-finite operand or an overflowing sum) makes that row's dot
        product inf or nan (inf * 0 is nan), as does an overflow in the dot
        product itself; leaky_relu keeps finite values finite. So the output
        is non-finite exactly when one of add, leaky_relu or dot_rows would
        have raised NumericError.
        """
        slope = float(slope)
        if not 0.0 <= slope <= 1.0:
            raise ConfigError(f"key_scores slope must be in [0, 1], got {slope}")
        qv, cv, vv = query_key.values, context_key.values, vec.values
        if (qv.ndim != 3 or qv.shape[1] != 1 or cv.ndim != 3 or cv.shape[0] not in (1, qv.shape[0])
                or cv.shape[1] == 0 or vv.ndim != 2 or vv.size == 0
                or not qv.shape[2] == cv.shape[2] == vv.size):
            raise ConfigError(
                f"key_scores needs (B, 1, F'), (B or 1, m >= 1, F') and (H, k) with H * k = F', "
                f"got {qv.shape}, {cv.shape}, {vv.shape}"
            )
        batch, (m, width), (heads, k) = qv.shape[0], cv.shape[1:], vv.shape
        shared = cv.shape[0] == 1
        rows = max(1, KEY_SCORES_TILE // (m * width))
        needs = query_key._needs or context_key._needs or vec._needs
        z = np.empty((min(rows, batch), m, width))
        # the gradient functions read the activations and the factor of
        # every query
        acts = np.empty((batch, m, width) if needs else z.shape)
        factor = np.empty_like(acts) if needs else None
        out = np.empty((batch, m, heads))
        for lo in range(0, batch, rows):
            hi = min(lo + rows, batch)
            zt = np.add(qv[lo:hi], cv if shared else cv[lo:hi], out=z[:hi - lo])
            act = acts[lo:hi] if needs else acts[:hi - lo]
            np.multiply(zt, slope, out=act)
            np.maximum(zt, act, out=act)
            if needs:
                np.maximum(zt > 0, slope, out=factor[lo:hi])
            np.einsum("...k,...k->...", act.reshape(hi - lo, m, heads, k), vv, out=out[lo:hi])

        def gz(g):
            # the gradient at z, shared by both keys; recomputed per key, as
            # caching it would keep one more key block alive with the graph
            return (g[..., None] * vv).reshape(batch, m, width) * factor

        return self._emit(out, (
            (vec, lambda g: _unbroadcast(g[..., None] * acts.reshape(batch, m, heads, k), vv.shape)),
            (query_key, lambda g: _unbroadcast(gz(g), qv.shape)),
            (context_key, lambda g: _unbroadcast(gz(g), cv.shape)),
        ), "key_scores")

    def transpose(self, x: Tensor, axes) -> Tensor:
        """Permute axes (a view; the gradient permutes back). Like reshape,
        it makes no values, so its output is not checked again."""
        axes = tuple(int(a) for a in axes)
        if sorted(axes) != list(range(x.values.ndim)):
            raise ConfigError(f"transpose axes {axes} invalid for shape {x.shape}")
        inverse = tuple(int(i) for i in np.argsort(axes))
        return self._emit(x.values.transpose(axes), ((x, lambda g: g.transpose(inverse)),), "transpose",
                          check=False)

    def take_rows(self, x: Tensor, indices) -> Tensor:
        """Gather rows of a matrix; the gradient scatter-adds back."""
        idx = np.asarray(indices, dtype=np.int64)
        if x.values.ndim != 2 or idx.ndim != 1:
            raise ConfigError(f"take_rows expects (matrix, index vector), got {x.shape}, {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= x.values.shape[0]):
            raise ConfigError("take_rows index out of range")

        def scatter_add(g):
            # the gather as a selection matrix, one row per pick; its
            # transpose is a CSC view, whose product (as in spmm) sums
            # repeated rows in pick order
            pick = sp.csr_matrix(
                (np.ones(idx.size), idx, np.arange(idx.size + 1)), shape=(idx.size, x.values.shape[0])
            )
            return pick.T @ g

        return self._emit(x.values[idx], ((x, scatter_add),), "take_rows")

    def slice_last(self, x: Tensor, start: int, stop: int) -> Tensor:
        if x.values.ndim == 0:
            raise ConfigError("slice_last expects at least 1-D input")
        width = x.values.shape[-1]
        if not 0 <= start < stop <= width:
            raise ConfigError(f"slice [{start}:{stop}] invalid for width {width}")

        def widen(g):
            buf = np.zeros_like(x.values)
            buf[..., start:stop] = g
            return buf

        return self._emit(x.values[..., start:stop], ((x, widen),), "slice_last")

    def reshape(self, x: Tensor, shape) -> Tensor:
        shape = tuple(shape)
        return self._emit(x.values.reshape(shape), ((x, lambda g: g.reshape(x.values.shape)),), "reshape",
                          check=False)

    def spmm(self, s, x: Tensor) -> Tensor:
        """Multiply by a constant scipy CSR matrix (no gradient through s)."""
        if not sp.issparse(s):
            raise ConfigError("spmm expects a scipy sparse matrix on the left")
        if x.values.ndim != 2 or s.shape[1] != x.values.shape[0]:
            raise ConfigError(f"spmm shapes incompatible: {s.shape} @ {x.shape}")
        # s.T is a CSC view of s: the product sums in the order of
        # s.T.tocsr() @ g without building that copy
        return self._emit(np.asarray(s @ x.values), ((x, lambda g: np.asarray(s.T @ g)),), "spmm")

    def clamp(self, x: Tensor, lo: float, hi: float) -> Tensor:
        xv = x.values
        inside = ((xv > lo) & (xv < hi)).astype(np.float64)
        return self._emit(np.clip(xv, lo, hi), ((x, lambda g: g * inside),), "clamp")

    def bce(self, prediction: Tensor, labels) -> Tensor:
        """Mean binary cross-entropy of probabilities against 0/1 labels.

        `labels` is one label for every probability, or one label per
        probability in prediction.values.ravel() order. The per-item losses
        are summed left to right, then scaled by 1/n.
        """
        p_raw = prediction.values.reshape(-1)
        n = p_raw.size
        if n == 0:
            raise ConfigError("bce expects at least one probability")
        y = np.asarray(labels, dtype=np.float64).reshape(-1)
        if y.size not in (1, n):
            raise ConfigError(f"bce got {y.size} labels for {n} probabilities")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ConfigError(f"bce labels must be 0 or 1, got {labels}")
        p = np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS)
        active = (PROB_EPS < p_raw) & (p_raw < 1.0 - PROB_EPS)
        scale = 1.0 / n

        def d_prob(g):
            dp = np.where(active, float(g.reshape(())) * scale * (p - y) / (p * (1.0 - p)), 0.0)
            return dp.reshape(prediction.values.shape)

        losses = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        # cumsum adds strictly left to right
        return self._emit(np.array(np.cumsum(losses)[-1] * scale), ((prediction, d_prob),), "bce")


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class Optimizer:
    """SGD or Adam state over a named parameter dict."""

    kind: str
    lr: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.kind!r}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")


def zero_grad(params: dict):
    for t in params.values():
        t.grad = None


def step(opt: Optimizer, params: dict):
    """Apply one update in sorted parameter-name order, then clear grads.

    Parameters without a gradient (never touched by the loss) are skipped,
    including their moment updates. The update is all-or-nothing: gradients
    are validated and new values staged before anything is committed, so a
    NumericError never leaves a half-updated parameter set.
    """
    for name in sorted(params):
        g = params[name].grad
        if g is not None and not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    opt.t += 1
    staged = []
    # overflow here is caught by the finiteness check, not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for name in sorted(params):
            p = params[name]
            g = p.grad
            if g is None:
                continue
            if opt.kind == "sgd":
                new_values = p.values - opt.lr * g
                moments = None
            else:
                m = opt.m.get(name, np.zeros_like(p.values)) * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
                v = opt.v.get(name, np.zeros_like(p.values)) * ADAM_BETA2 + (1.0 - ADAM_BETA2) * g * g
                m_hat = m / (1.0 - ADAM_BETA1**opt.t)
                v_hat = v / (1.0 - ADAM_BETA2**opt.t)
                new_values = p.values - opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                moments = (m, v)
            if not np.isfinite(new_values).all():
                opt.t -= 1
                raise NumericError(f"non-finite parameter values for {name!r} after update")
            staged.append((name, new_values, moments))
    for name, new_values, moments in staged:
        params[name].values = new_values
        if moments is not None:
            opt.m[name], opt.v[name] = moments
    zero_grad(params)


# ---------------------------------------------------------------------------
# initialization


def xavier_uniform(shape, rng) -> np.ndarray:
    """Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) == 2:
        fan_in, fan_out = shape
    elif len(shape) == 1:
        fan_in, fan_out = shape[0], 1
    else:
        raise ConfigError(f"xavier init supports 1-D/2-D shapes, got {shape}")
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, config: dict, params: dict):
    """Write config and params as one JSON document in format 2: each
    parameter's shape, and its values as base64 of their little-endian
    float64 bytes, which load back bit for bit."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": config,
        "parameters": {
            name: {"shape": list(t.values.shape),
                   "values": base64.b64encode(t.values.astype("<f8").tobytes()).decode("ascii")}
            for name, t in sorted(params.items())
        },
    }
    write_json_atomic(path, doc)


def load_checkpoint(path):
    """Returns (config_dict, params), each parameter's values a writable,
    C-contiguous float64 array. Reads formats 2 and 1 and rejects any other
    version, and any document that is not a checkpoint, with DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"no such checkpoint: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not a valid checkpoint: {exc}")
    if not isinstance(doc, dict):
        raise DataError(f"{path} is not a valid checkpoint: the top level is not an object")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise DataError(f"unsupported checkpoint format_version {version!r}")
    entries = doc.get("parameters")
    if not isinstance(entries, dict):
        raise DataError("malformed checkpoint: 'parameters' is not an object")
    try:
        params = {name: param(_parameter_values(name, entry, version))
                  for name, entry in entries.items()}
        return dict(doc["config"]), params
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint: {exc}")


def _parameter_values(name: str, entry, version: int) -> np.ndarray:
    """One checkpoint entry's values in its shape."""
    if not isinstance(entry, dict):
        raise DataError(f"malformed checkpoint: parameter {name!r} is not an object")
    shape = entry["shape"]
    if type(shape) is not list or not all(type(d) is int and d >= 0 for d in shape):
        raise DataError(f"malformed checkpoint: parameter {name!r} has shape {shape!r}")
    if version == 1:
        return np.array(entry["values"], dtype=np.float64).reshape(shape)
    raw = base64.b64decode(entry["values"], validate=True)
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise DataError(f"malformed checkpoint: parameter {name!r} holds {len(raw)} bytes, "
                        f"shape {shape} needs {size}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def clone_params(params: dict) -> dict:
    return {name: param(t.values.copy()) for name, t in params.items()}


# ---------------------------------------------------------------------------
# finite-difference verification


def check_gradients(loss_fn, params: dict, h: float = 1e-5, min_mag: float = 1e-6) -> float:
    """Max relative error between tape gradients and central differences.

    loss_fn(params, tape) must build a scalar loss on the given tape, purely
    from params (and captured constants). Entries where both gradients have
    magnitude <= min_mag are ignored. The finite-difference side never runs
    backward, so it is an independent oracle for the reverse pass.
    """
    tape = Tape()
    loss = loss_fn(params, tape)
    tape.backward(loss)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.values))
        for name, t in params.items()
    }
    zero_grad(params)

    def loss_value() -> float:
        return float(loss_fn(params, Tape()).values.reshape(()))

    worst = 0.0
    for name in sorted(params):
        vals = params[name].values
        flat = vals.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_value()
            flat[i] = keep - h
            down = loss_value()
            flat[i] = keep
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(numeric))
            if denom > min_mag:
                worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
