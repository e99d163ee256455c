"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A `Tape` records every operation; `Tape.backward(loss)` replays the records
in reverse creation order (a valid reverse-topological order) exactly once
and accumulates gradients into each tensor's `.grad` slot. Only the ops the
model needs exist, each with a hand-written pullback; every op output is
checked for finiteness so numeric blowups surface at their source.

Constant matrices that never need gradients (neighbor-averaging and pooling
operators) enter through `spmm` as scipy CSR matrices; everything
differentiable is dense numpy.
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
        t.grad = np.zeros_like(t.values)
    t.grad += g


class Tape:
    """Operation recorder. One tape per forward pass; discard after use."""

    def __init__(self):
        self._nodes: list[Tensor] = []

    # -- plumbing ----------------------------------------------------------

    def _emit(self, values, parents, pullback, op: str) -> Tensor:
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
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
        av, bv = a.values, b.values
        if av.ndim == 0 or bv.ndim == 0 or av.ndim > 2 or bv.ndim > 2:
            raise ConfigError(f"matmul supports 1-D/2-D operands, got {av.shape} @ {bv.shape}")
        if av.shape[-1] != bv.shape[0]:
            raise ConfigError(f"matmul inner dims differ: {av.shape} @ {bv.shape}")

        def pull(g):
            if av.ndim == 2 and bv.ndim == 2:
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
        av, bv = a.values, b.values
        if av.shape == bv.shape:
            def pull(g):
                if a._needs:
                    _accumulate(a, g)
                if b._needs:
                    _accumulate(b, g)
        elif av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
            # matrix plus row vector, broadcast down the rows
            def pull(g):
                if a._needs:
                    _accumulate(a, g)
                if b._needs:
                    _accumulate(b, g.sum(axis=0))
        else:
            raise ConfigError(f"add shapes incompatible: {av.shape} + {bv.shape}")
        return self._emit(av + bv, (a, b), pull, "add")

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)

        def pull(g):
            if a._needs:
                _accumulate(a, g * c)

        return self._emit(a.values * c, (a,), pull, "scale")

    def concat(self, a: Tensor, b: Tensor) -> Tensor:
        """Concatenate along the last axis (vectors or matrices)."""
        av, bv = a.values, b.values
        if av.ndim != bv.ndim or av.ndim not in (1, 2):
            raise ConfigError(f"concat shapes incompatible: {av.shape} ++ {bv.shape}")
        if av.ndim == 2 and av.shape[0] != bv.shape[0]:
            raise ConfigError(f"concat row counts differ: {av.shape} ++ {bv.shape}")
        split = av.shape[-1]

        def pull(g):
            if a._needs:
                _accumulate(a, g[..., :split])
            if b._needs:
                _accumulate(b, g[..., split:])

        return self._emit(np.concatenate([av, bv], axis=-1), (a, b), pull, "concat")

    def tile_rows(self, v: Tensor, m: int) -> Tensor:
        if v.values.ndim != 1:
            raise ConfigError(f"tile_rows expects a vector, got shape {v.shape}")

        def pull(g):
            if v._needs:
                _accumulate(v, g.sum(axis=0))

        return self._emit(np.tile(v.values, (int(m), 1)), (v,), pull, "tile_rows")

    def leaky_relu(self, x: Tensor, slope: float = 0.01) -> Tensor:
        xv = x.values
        factor = np.where(xv > 0, 1.0, float(slope))

        def pull(g):
            if x._needs:
                _accumulate(x, g * factor)

        return self._emit(xv * factor, (x,), pull, "leaky_relu")

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
        if x.values.ndim != 1 or x.values.size == 0:
            raise ConfigError(f"softmax expects a non-empty vector, got shape {x.shape}")
        shifted = x.values - x.values.max()
        e = np.exp(shifted)
        # canonical (sorted) summation: permuting the inputs permutes the
        # outputs bit-exactly, which downstream invariance checks rely on
        out = e / np.sort(e).sum()

        def pull(g):
            if x._needs:
                _accumulate(x, out * (g - float(g @ out)))

        return self._emit(out, (x,), pull, "softmax")

    def dot_rows(self, x: Tensor, v: Tensor) -> Tensor:
        """Per-row dot product, (m, k) . (k,) -> (m,).

        Unlike matmul this reduces every row with the same summation tree,
        so each output element depends only on its own row: permuting the
        rows of x permutes the result bit-exactly (BLAS matvec kernels do
        not guarantee that).
        """
        xv, vv = x.values, v.values
        if xv.ndim != 2 or vv.ndim != 1 or xv.shape[1] != vv.shape[0]:
            raise ConfigError(f"dot_rows shapes incompatible: {xv.shape} . {vv.shape}")

        def pull(g):
            if x._needs:
                _accumulate(x, g[:, None] * vv)
            if v._needs:
                _accumulate(v, xv.T @ g)

        return self._emit((xv * vv).sum(axis=-1), (x, v), pull, "dot_rows")

    def take_rows(self, x: Tensor, indices) -> Tensor:
        """Gather rows of a matrix; the gradient scatter-adds back."""
        idx = np.asarray(indices, dtype=np.int64)
        if x.values.ndim != 2 or idx.ndim != 1:
            raise ConfigError(f"take_rows expects (matrix, index vector), got {x.shape}, {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= x.values.shape[0]):
            raise ConfigError("take_rows index out of range")

        def pull(g):
            if x._needs:
                buf = np.zeros_like(x.values)
                np.add.at(buf, idx, g)
                _accumulate(x, buf)

        return self._emit(x.values[idx], (x,), pull, "take_rows")

    def slice_last(self, x: Tensor, start: int, stop: int) -> Tensor:
        if x.values.ndim not in (1, 2):
            raise ConfigError(f"slice_last expects 1-D or 2-D input, got {x.shape}")
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

        return self._emit(x.values.reshape(shape), (x,), pull, "reshape")

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

    def bce(self, prediction: Tensor, label: float) -> Tensor:
        """Binary cross-entropy of a single probability against label 0/1."""
        if prediction.values.size != 1:
            raise ConfigError(f"bce expects a scalar probability, got shape {prediction.shape}")
        y = float(label)
        if y not in (0.0, 1.0):
            raise ConfigError(f"bce label must be 0 or 1, got {label}")
        p = float(np.clip(prediction.values.reshape(()), PROB_EPS, 1.0 - PROB_EPS))
        raw = float(prediction.values.reshape(()))
        active = PROB_EPS < raw < 1.0 - PROB_EPS

        def pull(g):
            if prediction._needs:
                dp = float(g.reshape(())) * (p - y) / (p * (1.0 - p)) if active else 0.0
                _accumulate(prediction, np.full_like(prediction.values, dp))

        value = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        return self._emit(np.array(value), (prediction,), pull, "bce")


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
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")


def zero_grad(params: dict):
    for t in params.values():
        t.grad = None


def step(opt: Optimizer, params: dict, grads: dict = None):
    """Apply one update in sorted parameter-name order, then clear grads.

    Parameters without a gradient (never touched by the loss) are skipped,
    including their moment updates. The update is all-or-nothing: gradients
    are validated and new values staged before anything is committed, so a
    NumericError never leaves a half-updated parameter set.
    """
    if grads is None:
        grads = {name: t.grad for name, t in params.items()}
    for name in sorted(params):
        g = grads.get(name)
        if g is not None and not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    opt.t += 1
    staged = []
    # overflow here is caught by the finiteness check, not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for name in sorted(params):
            g = grads.get(name)
            if g is None:
                continue
            p = params[name]
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
