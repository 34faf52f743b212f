"""Dense float64 tensors with taped reverse-mode gradients and an Adam optimizer.

Everything is CPU numpy in row-major float64. Operations record themselves on
the innermost active Tape (a context manager); `backward` replays the tape in
reverse, visiting each record exactly once. Without an active tape the ops are
plain forward math, which is what inference uses.

Gradient correctness is the contract here: every op's vector-Jacobian product
is checked against central finite differences in the test suite, so new ops
must come with smooth derivatives (this is why the nonlinearity is gelu, not
relu).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(ValueError):
    """Non-finite input where finite values are required."""


class Tensor:
    """A dense float64 array, an optional gradient buffer, and a grad flag."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Small amount of operator sugar; everything else is a module function.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __matmul__(self, other):
        return matmul(self, other)


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class Tape:
    """Ordered record of operations; create fresh per training step.

    Ops append in execution order, so the list is already topologically
    sorted: a single reverse sweep is a complete backward pass.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records = []  # (out, inputs, vjp)

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.records)


# Spec-facing alias.
ComputationTape = Tape


def _record(out: Tensor, inputs: tuple, vjp):
    """Attach a backward rule to the active tape, if recording is on.

    `vjp(grad_out)` must return one fresh (never aliased) array or None per
    input, in order. None means "no gradient flows to this input".
    """
    stack = _tape_stack()
    if stack and out.requires_grad:
        stack[-1].records.append((out, inputs, vjp))


def _result(data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    _record(out, inputs, vjp)
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate .grad on every requires_grad tensor reachable from `loss`."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for out, inputs, vjp in reversed(tape.records):
        gout = out.grad
        if gout is None:
            continue
        for inp, gin in zip(inputs, vjp(gout)):
            if gin is None or not inp.requires_grad:
                continue
            # out of place: a VJP may hand back `gout` itself or a view of
            # it, which another input's gradient can share
            inp.grad = gin if inp.grad is None else inp.grad + gin


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    # ascontiguousarray makes a 0-d array 1-d; the reshape restores `shape`
    return np.ascontiguousarray(grad).reshape(shape)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _result(x.data * c, (x,), vjp)


def gelu(x: Tensor) -> Tensor:
    # tanh-form gelu; smooth everywhere, which keeps finite-difference
    # gradient checks meaningful at any input (a relu kink would not).
    # powers spelled as multiplies: np.power is an order of magnitude slower
    c = np.sqrt(2.0 / np.pi)
    xd = x.data
    x2 = xd * xd
    t = np.tanh(c * (xd + 0.044715 * (x2 * xd)))
    data = 0.5 * xd * (1.0 + t)

    def vjp(g):
        du = c * (1.0 + 3 * 0.044715 * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du),)

    return _result(data, (x,), vjp)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-D x 2-D, stacked N-D x N-D (equal leading dims),
    or N-D x 2-D (shared weight applied to every leading slice)."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"inner dims differ: {ad.shape} @ {bd.shape}")
    if ad.ndim == bd.ndim:
        if ad.shape[:-2] != bd.shape[:-2]:
            raise ShapeError(f"leading dims differ: {ad.shape} @ {bd.shape}")

        def vjp(g):
            return (
                np.ascontiguousarray(g @ bd.swapaxes(-1, -2)),
                np.ascontiguousarray(ad.swapaxes(-1, -2) @ g),
            )

    elif bd.ndim == 2:

        def vjp(g):
            k, n = bd.shape
            ga = g @ bd.T
            gb = ad.reshape(-1, k).T @ g.reshape(-1, n)
            return (np.ascontiguousarray(ga), gb)

    else:
        raise ShapeError(f"unsupported matmul arrangement: {ad.shape} @ {bd.shape}")

    return _result(np.ascontiguousarray(ad @ bd), (a, b), vjp)


# ---------------------------------------------------------------------------
# softmax / cross-entropy
# ---------------------------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Row softmax along the last axis, computed with max-subtraction.

    -inf inputs are legal (they get exactly zero probability; attention masks
    rely on this), NaN inputs are not.
    """
    xd = x.data
    m = xd.max(axis=-1, keepdims=True)
    if np.isnan(m).any():  # NaN propagates through max; cheaper than a full scan
        raise NumericError("softmax_rows: NaN in input")
    shifted = xd - m
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _result(s, (x,), vjp)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax of the target id per row. Scalar output."""
    xd = logits.data
    if xd.ndim != 2:
        raise ShapeError(f"cross_entropy expects (m, V) logits, got {xd.shape}")
    t = np.asarray(targets, dtype=np.int64)
    if t.ndim != 1 or t.shape[0] != xd.shape[0]:
        raise ShapeError(f"targets length {t.shape} does not match logits {xd.shape}")
    v = xd.shape[1]
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"target id out of range [0, {v})")
    m = xd.shape[0]
    shifted = xd - xd.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(m)
    data = np.asarray((lse - shifted[rows, t]).mean())

    def vjp(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, t] -= 1.0
        return (p * (float(g) / m),)

    return _result(data, (logits,), vjp)


# ---------------------------------------------------------------------------
# normalization / embedding / dropout
# ---------------------------------------------------------------------------


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        d = xd.shape[-1]
        gg = g * gain.data
        gx = inv * (
            gg
            - gg.mean(axis=-1, keepdims=True)
            - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
        )
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead)
        gbias = g.sum(axis=lead)
        return (np.ascontiguousarray(gx), ggain, gbias)

    return _result(data, (x, gain, bias), vjp)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: output shape ids.shape + (d,)."""
    idx = np.asarray(ids, dtype=np.int64)
    n = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"embedding id out of range [0, {n})")
    data = table.data[idx]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return _result(np.ascontiguousarray(data), (table,), vjp)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a mask drawn from `rng` (replayable by reseeding)."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = rng.random(x.data.shape) >= p
    factor = 1.0 / (1.0 - p)
    data = x.data * keep * factor

    def vjp(g):
        return (g * keep * factor,)

    return _result(data, (x,), vjp)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, bounds, axis=axis))

    return _result(data, tuple(tensors), vjp)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    n = x.data.shape[axis]
    if not (0 <= start and start + length <= n):
        raise ShapeError(f"narrow [{start}, {start + length}) out of bounds for axis size {n}")
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = np.ascontiguousarray(x.data[sl])

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        return (gx,)

    return _result(data, (x,), vjp)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor by index (repeats allowed)."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects 2-D input, got {x.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row index out of range [0, {n})")
    data = np.ascontiguousarray(x.data[idx])

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _result(data, (x,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = np.ascontiguousarray(x.data.reshape(shape))
    orig = x.data.shape

    def vjp(g):
        return (g.reshape(orig).copy(),)

    return _result(data, (x,), vjp)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = np.ascontiguousarray(x.data.transpose(axes))

    def vjp(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _result(data, (x,), vjp)


def pad_stack(tensors, length: int | None = None) -> Tensor:
    """Stack 2-D (T_i, d) tensors into (B, L, d), zero-padding rows to L."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("pad_stack of zero tensors")
    d = tensors[0].data.shape[1]
    lens = [t.data.shape[0] for t in tensors]
    if any(t.data.ndim != 2 or t.data.shape[1] != d for t in tensors):
        raise ShapeError("pad_stack expects 2-D tensors with a common last dim")
    L = max(lens) if length is None else length
    if L < max(lens):
        raise ShapeError(f"pad length {L} shorter than longest input {max(lens)}")
    data = np.zeros((len(tensors), L, d))
    for i, t in enumerate(tensors):
        data[i, : lens[i]] = t.data

    def vjp(g):
        return tuple(np.ascontiguousarray(g[i, : lens[i]]) for i in range(len(tensors)))

    return _result(data, tuple(tensors), vjp)


def sum_axis(x: Tensor, axis: int) -> Tensor:
    data = x.data.sum(axis=axis)

    def vjp(g):
        return (np.ascontiguousarray(np.broadcast_to(np.expand_dims(g, axis), x.data.shape)),)

    return _result(data, (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum())

    def vjp(g):
        return (np.full_like(x.data, float(g)),)

    return _result(data, (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    data = np.asarray(x.data.mean())

    def vjp(g):
        return (np.full_like(x.data, float(g) / n),)

    return _result(data, (x,), vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam with bias correction. Moment buffers are lazily shaped to params."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update over aligned `params`/`grads`; grads are zeroed after.

    `grads` may be the params' own .grad buffers (the usual case) or any
    aligned list of arrays.
    """
    params = list(params)
    grads = list(grads)
    if len(params) != len(grads):
        raise ContractError("params and grads must align one-to-one")
    for p, g in zip(params, grads):
        if g is None:
            raise ContractError("missing gradient for a parameter")
        if g.shape != p.data.shape:
            raise ContractError(f"grad shape {g.shape} != param shape {p.data.shape}")
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    if len(state.m) != len(params):
        raise ContractError("AdamState was initialized for a different parameter list")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    lr = state.learning_rate / bc1
    inv_sqrt_bc2 = 1.0 / np.sqrt(bc2)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        g *= g
        v += (1.0 - b2) * g
        denom = np.sqrt(v)
        denom *= inv_sqrt_bc2
        denom += state.epsilon
        denom = m / denom
        denom *= lr
        p.data -= denom
        g[...] = 0.0


def clip_grad_norm(grads, max_norm: float) -> float:
    """Scale grads in place so the global L2 norm is at most `max_norm`.

    Returns the pre-clip norm.
    """
    total = 0.0
    for g in grads:
        if g is None:
            raise ContractError("missing gradient in clip_grad_norm")
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        s = max_norm / norm
        for g in grads:
            g *= s
    return norm


def fill_missing_grads(params) -> list:
    """Return the params' grad buffers, materializing zeros where backward
    never reached (e.g. an embedding table unused by this step's layer draw)."""
    out = []
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        out.append(p.grad)
    return out
