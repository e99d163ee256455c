"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A `Tape` records every operation; `Tape.backward(loss)` replays the records
in reverse creation order (a valid reverse-topological order) exactly once
and accumulates gradients into each tensor's `.grad` slot. Only the ops the
model needs exist, each with a hand-written pullback; every op that computes
values checks its output for finiteness, so numeric blowups surface at
their source (`reshape` and `transpose` only re-view their input's values).

Constant matrices that never need gradients (neighbor-averaging and pooling
operators) enter through `spmm` as scipy CSR matrices; everything
differentiable is dense numpy.

The model runs a whole batch of queries through one sequence of ops, so
`matmul`, `add`, `concat`, `dot_rows`, `softmax`, `slice_last` and `bce`
also take stacked (N-D) operands, broadcasting leading axes the way numpy
does, and `transpose` permutes axes. Stacked matmuls call the same BLAS
routine per stack entry as the 1-D/2-D form would, and reductions run over
a C-contiguous last axis (`dot_rows` as one einsum inner loop per row), so
a batched forward pass reproduces the per-query values bit for bit.

An op records a pullback only when some operand needs a gradient. Scoring
wraps the parameters with `const`, so its forward passes record no graph,
and each intermediate is freed as soon as the next op is done with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericError
from .graphs import write_json_atomic

CHECKPOINT_VERSION = 1

#: Probabilities are clamped into [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-12


class Tensor:
    """Value node. Leaf parameters carry requires_grad=True; everything else
    is either a constant or an op output owned by some Tape."""

    __slots__ = ("values", "grad", "requires_grad", "_needs", "_pullback")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._needs = self.requires_grad
        self._pullback = None

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
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # a copy: g may be shared
    else:
        t.grad += g


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

    def _emit(self, values, parents, pullback, op: str, check: bool = True) -> Tensor:
        values = np.asarray(values, dtype=np.float64)
        if check and not np.isfinite(values).all():
            raise NumericError(f"non-finite values produced by {op}")
        out = Tensor(values)
        out._needs = any(p._needs for p in parents)
        if out._needs:
            out._pullback = pullback
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
            if node.grad is None or node._pullback is None:
                continue
            node._pullback(node.grad)
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

        def pull(g):
            if stacked and bv.ndim == 2:
                # a matrix shared by the whole stack: one gemm per gradient
                if a._needs:
                    _accumulate(a, (g.reshape(-1, g.shape[-1]) @ bv.T).reshape(av.shape))
                if b._needs:
                    _accumulate(b, av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            elif stacked:
                if a._needs:
                    _accumulate(a, _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
                if b._needs:
                    _accumulate(b, _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))
            elif av.ndim == 2 and bv.ndim == 2:
                if a._needs:
                    _accumulate(a, g @ bv.T)
                if b._needs:
                    _accumulate(b, av.T @ g)
            elif av.ndim == 1 and bv.ndim == 2:
                if a._needs:
                    _accumulate(a, bv @ g)
                if b._needs:
                    _accumulate(b, np.outer(av, g))
            elif av.ndim == 2 and bv.ndim == 1:
                if a._needs:
                    _accumulate(a, np.outer(g, bv))
                if b._needs:
                    _accumulate(b, av.T @ g)
            else:
                if a._needs:
                    _accumulate(a, g * bv)
                if b._needs:
                    _accumulate(b, g * av)

        return self._emit(av @ bv, (a, b), pull, "matmul")

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise sum; the operands broadcast the way numpy's do."""
        av, bv = a.values, b.values
        _broadcast_shape("add", av.shape, bv.shape)

        def pull(g):
            if a._needs:
                _accumulate(a, _unbroadcast(g, av.shape))
            if b._needs:
                _accumulate(b, _unbroadcast(g, bv.shape))

        return self._emit(av + bv, (a, b), pull, "add")

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)

        def pull(g):
            if a._needs:
                _accumulate(a, g * c)

        return self._emit(a.values * c, (a,), pull, "scale")

    def concat(self, a: Tensor, b: Tensor) -> Tensor:
        """Concatenate along the last axis; leading axes broadcast, so a
        (B, 1, F) block against an (m, F) one gives (B, m, 2F)."""
        av, bv = a.values, b.values
        if av.ndim == 0 or bv.ndim == 0:
            raise ConfigError(f"concat needs at least 1-D operands: {av.shape} ++ {bv.shape}")
        lead = _broadcast_shape("concat", av.shape[:-1], bv.shape[:-1])
        split = av.shape[-1]

        def pull(g):
            if a._needs:
                _accumulate(a, _unbroadcast(g[..., :split], av.shape))
            if b._needs:
                _accumulate(b, _unbroadcast(g[..., split:], bv.shape))

        out = np.concatenate(
            [np.broadcast_to(av, lead + av.shape[-1:]), np.broadcast_to(bv, lead + bv.shape[-1:])],
            axis=-1,
        )
        return self._emit(out, (a, b), pull, "concat")

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
        # made here and kept for the pullback: building it inside the
        # pullback frees memory earlier, and warm pretraining epochs then
        # slowed down through twice the page faults
        factor = np.maximum(xv > 0, slope) if x._needs else None

        def pull(g):
            if x._needs:
                _accumulate(x, g * factor)

        return self._emit(out, (x,), pull, "leaky_relu")

    def sigmoid(self, x: Tensor) -> Tensor:
        xv = x.values
        out = np.empty_like(xv, dtype=np.float64)
        pos = xv >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-xv[pos]))
        ex = np.exp(xv[~pos])
        out[~pos] = ex / (1.0 + ex)

        def pull(g):
            if x._needs:
                _accumulate(x, g * out * (1.0 - out))

        return self._emit(out, (x,), pull, "sigmoid")

    def softmax(self, x: Tensor) -> Tensor:
        """Softmax over the last axis (every row of a stacked input)."""
        if x.values.ndim == 0 or x.values.shape[-1] == 0:
            raise ConfigError(f"softmax expects a non-empty last axis, got shape {x.shape}")
        # sorting and summing along a C-contiguous last axis gives every row
        # the summation order of the 1-D case
        xv = np.ascontiguousarray(x.values)
        e = np.exp(xv - xv.max(axis=-1, keepdims=True))
        # canonical (sorted) summation: permuting the inputs permutes the
        # outputs bit-exactly, which downstream invariance checks rely on
        out = e / np.sort(e, axis=-1).sum(axis=-1, keepdims=True)

        def pull(g):
            if x._needs:
                _accumulate(x, out * (g - (g * out).sum(axis=-1, keepdims=True)))

        return self._emit(out, (x,), pull, "softmax")

    def dot_rows(self, x: Tensor, v: Tensor) -> Tensor:
        """Dot product over the last axis, v broadcast against x's trailing
        axes: (m, k) . (k,) -> (m,), or (B, m, H, k) . (H, k) -> (B, m, H).

        Unlike matmul this reduces every row with the same summation tree
        (one einsum inner loop over the last axis), so each output element
        depends only on its own row: permuting the rows of x permutes the
        result bit-exactly (BLAS matvec kernels do not guarantee that).
        """
        xv, vv = x.values, v.values
        if vv.ndim == 0 or xv.ndim < vv.ndim or xv.shape[xv.ndim - vv.ndim:] != vv.shape:
            raise ConfigError(f"dot_rows shapes incompatible: {xv.shape} . {vv.shape}")

        def pull(g):
            if x._needs:
                _accumulate(x, g[..., None] * vv)
            if v._needs:
                _accumulate(v, _unbroadcast(g[..., None] * xv, vv.shape))

        return self._emit(np.einsum("...k,...k->...", xv, vv), (x, v), pull, "dot_rows")

    def transpose(self, x: Tensor, axes) -> Tensor:
        """Permute axes (a view; the gradient permutes back). Like reshape,
        it makes no values, so its output is not checked again."""
        axes = tuple(int(a) for a in axes)
        if sorted(axes) != list(range(x.values.ndim)):
            raise ConfigError(f"transpose axes {axes} invalid for shape {x.shape}")
        inverse = tuple(int(i) for i in np.argsort(axes))

        def pull(g):
            if x._needs:
                _accumulate(x, g.transpose(inverse))

        return self._emit(x.values.transpose(axes), (x,), pull, "transpose", check=False)

    def take_rows(self, x: Tensor, indices) -> Tensor:
        """Gather rows of a matrix; the gradient scatter-adds back."""
        idx = np.asarray(indices, dtype=np.int64)
        if x.values.ndim != 2 or idx.ndim != 1:
            raise ConfigError(f"take_rows expects (matrix, index vector), got {x.shape}, {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= x.values.shape[0]):
            raise ConfigError("take_rows index out of range")

        def pull(g):
            if x._needs:
                # scatter-add as a sparse product: repeated rows sum in order
                scatter = sp.csr_matrix(
                    (np.ones(idx.size), (idx, np.arange(idx.size))), shape=(x.values.shape[0], idx.size)
                )
                _accumulate(x, scatter @ g)

        return self._emit(x.values[idx], (x,), pull, "take_rows")

    def slice_last(self, x: Tensor, start: int, stop: int) -> Tensor:
        if x.values.ndim == 0:
            raise ConfigError("slice_last expects at least 1-D input")
        width = x.values.shape[-1]
        if not 0 <= start < stop <= width:
            raise ConfigError(f"slice [{start}:{stop}] invalid for width {width}")

        def pull(g):
            if x._needs:
                buf = np.zeros_like(x.values)
                buf[..., start:stop] = g
                _accumulate(x, buf)

        return self._emit(x.values[..., start:stop], (x,), pull, "slice_last")

    def reshape(self, x: Tensor, shape) -> Tensor:
        shape = tuple(shape)

        def pull(g):
            if x._needs:
                _accumulate(x, g.reshape(x.values.shape))

        return self._emit(x.values.reshape(shape), (x,), pull, "reshape", check=False)

    def spmm(self, s, x: Tensor) -> Tensor:
        """Multiply by a constant scipy CSR matrix (no gradient through s)."""
        if not sp.issparse(s):
            raise ConfigError("spmm expects a scipy sparse matrix on the left")
        if x.values.ndim != 2 or s.shape[1] != x.values.shape[0]:
            raise ConfigError(f"spmm shapes incompatible: {s.shape} @ {x.shape}")
        st = s.T.tocsr()

        def pull(g):
            if x._needs:
                _accumulate(x, np.asarray(st @ g))

        return self._emit(np.asarray(s @ x.values), (x,), pull, "spmm")

    def clamp(self, x: Tensor, lo: float, hi: float) -> Tensor:
        xv = x.values
        inside = ((xv > lo) & (xv < hi)).astype(np.float64)

        def pull(g):
            if x._needs:
                _accumulate(x, g * inside)

        return self._emit(np.clip(xv, lo, hi), (x,), pull, "clamp")

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

        def pull(g):
            if prediction._needs:
                dp = np.where(active, float(g.reshape(())) * scale * (p - y) / (p * (1.0 - p)), 0.0)
                _accumulate(prediction, dp.reshape(prediction.values.shape))

        losses = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        # cumsum adds strictly left to right
        return self._emit(np.array(np.cumsum(losses)[-1] * scale), (prediction,), pull, "bce")


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class Optimizer:
    """SGD or Adam state over a named parameter dict."""

    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
                m = opt.m.get(name, np.zeros_like(p.values)) * opt.beta1 + (1.0 - opt.beta1) * g
                v = opt.v.get(name, np.zeros_like(p.values)) * opt.beta2 + (1.0 - opt.beta2) * g * g
                m_hat = m / (1.0 - opt.beta1**opt.t)
                v_hat = v / (1.0 - opt.beta2**opt.t)
                new_values = p.values - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
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
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": config,
        "parameters": {
            name: {"shape": list(t.values.shape), "values": t.values.ravel().tolist()}
            for name, t in sorted(params.items())
        },
    }
    write_json_atomic(path, doc)


def load_checkpoint(path):
    """Returns (config_dict, params). Rejects unknown format versions."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"no such checkpoint: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not a valid checkpoint: {exc}")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint format_version {version!r}")
    try:
        params = {}
        for name, entry in doc["parameters"].items():
            values = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
            params[name] = param(values)
        return dict(doc["config"]), params
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint: {exc}")


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
