"""Dense float64 tensors with taped reverse-mode gradients and an Adam optimizer.

Everything is CPU numpy in row-major float64. Operations record themselves on
the innermost active Tape (a context manager); `backward` replays the tape in
reverse, visiting each record exactly once. Without an active tape the ops are
plain forward math, which is what inference uses.

Gradient correctness is the contract here: every op's vector-Jacobian product
is checked against central finite differences in the test suite, so new ops
must come with smooth derivatives (this is why the nonlinearity is gelu, not
relu).

The ops are the ones the model runs, plus `narrow` and `pad_stack`, which
the benchmark's tracer wraps. `add` takes operands of one shape (a bias goes
into `matmul`, attention's mask into `softmax_rows`), so no VJP sums a
gradient down to an operand. `matmul` with a 2-D weight, and `layer_norm`,
take 2-D rows.

A batch of ragged sequences runs packed: its real rows one after another,
as a 2-D array, with a row layout `(index, padded)` that places them among
the `padded` rows of the batch padded to its longest item (`index[i]` is
real row i's place there, in increasing order). `pad_rows` and
`unpad_rows` move rows between the two layouts, for the ops that need the
padded one (attention); every row-wise op runs on the real rows alone.
`matmul` and `dropout` take the layout so that they give the bits of the
padded batch with zeros in the padding:
- `dropout` draws its mask over the padded shape, in the padded batch's
  order, and keeps the real rows.
- `matmul`'s weight gradient `Xᵀ·G` sums over rows, and BLAS splits that
  sum into blocks of rows, so the same real rows summed without the
  padding can round otherwise. It is formed on the padded rows, zero in
  the padding, where a zero row adds an exact zero. A bias's or a layer
  norm's column sum needs no padding: numpy adds the rows of a non-inner
  axis one at a time, so dropping zero rows leaves every sum unchanged.

Backward splits its work in two. The input-gradient chain runs in order on
the calling thread. A leaf's gradient (a parameter's, say `Xᵀ·G` for a
weight, or the sum of `G` over its rows for a bias) is read by nothing until
backward returns, so a VJP may hand it back as a function, and `backward`
runs that function on a worker thread of its own while the chain goes on.
The worker starts with the sweep's first leaf contribution and is joined
before `backward` returns or raises, so no thread outlives the call and a
forked process inherits none.
Each product is the same numpy call on either thread, and `backward` adds
each leaf's contributions in the order of the sweep, so gradients are
bit-identical to a single-threaded pass. Work sent to the worker calls numpy
only, never an op of this package: the benchmark's tracer
(perfbench/tracer.py) wraps this package's functions with one stack of open
spans, which assumes every call comes from the main thread.

Backward keeps few buffers alive. The tape holds what backward reads and
nothing more, the saved-tensor discipline of PyTorch's autograd (Paszke et
al., arXiv 1912.01703), with no recompute:
- A record keeps a small node as its output's gradient slot, never the
  output tensor, and per input either that input's node or, for a leaf,
  the leaf tensor. So an output no VJP reads (a residual add, a matmul's
  product) is freed as soon as the caller drops it.
- Each VJP captures only the arrays it reads, plus shapes and flags.
- The sweep releases each record's VJP, and with it those arrays, once it
  has run, and drops the record's output gradient: nothing else reads
  either. Run `backward` once per tape; the records stay, so `len(tape)`
  still counts them.
- A leaf owns its gradient buffer: the first contribution is copied into a
  new array and later ones are added into it in place, so no two leaves
  share memory and `clip_grad_norm`/`adam_step` may scale each in place.
  The worker adds each contribution as it arrives, so none waits for the
  sweep to end.
`matmul` takes the bias, so a projection is one record with no pre-bias
array. `gelu` computes its derivative in the forward pass, while the
input and tanh term are still in cache, and saves only that array for the
VJP; its input is freed with the caller's reference. The `phonolm` CLI
has glibc's malloc keep freed memory in the process
(`cli.keep_freed_pages`), so what one step frees serves the next step's
allocations without faulting in fresh pages.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(ValueError):
    """Non-finite input where finite values are required."""


def check_counts(config, least: dict) -> None:
    """Raise ContractError unless each field of `config` named in `least` is
    an int (not a bool) >= its least value. A float or bool would pass a range
    check and fail only where it is used, or not at all."""
    for key, bound in least.items():
        value = getattr(config, key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ContractError(f"{type(config).__name__}.{key} must be an int, got {value!r}")
        if value < bound:
            raise ContractError(f"{type(config).__name__}.{key} must be >= {bound}, got {value!r}")


def check_reals(config, keys) -> None:
    """Raise ContractError unless each field of `config` named in `keys` is
    a finite int or float (not a bool) >= 0. NaN fails every comparison, so
    a range check alone lets it through."""
    for key in keys:
        value = getattr(config, key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
            raise ContractError(f"{type(config).__name__}.{key} must be a finite real >= 0, got {value!r}")


class Tensor:
    """A dense float64 array, an optional gradient buffer, and a grad flag.

    `node` is the gradient slot a tape recorded for this tensor, or None:
    backward fills a leaf's own `.grad` and an interior tensor's node."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class _Node:
    """The gradient slot of one output recorded on a tape.

    It refers to no tensor, and a leaf has none: a node that referred back
    to its parameter would be a cycle keeping old models alive until a full
    garbage collection."""

    __slots__ = ("grad", "tape")
    requires_grad = True  # read like a leaf tensor's flag in a record's inputs

    def __init__(self, tape_key):
        self.grad = None
        self.tape = tape_key


class Tape:
    """Ordered record of operations; create fresh per training step.

    Ops append in execution order, so the list is already topologically
    sorted: a single reverse sweep is a complete backward pass.
    """

    __slots__ = ("records", "key")

    def __init__(self):
        self.records = []  # (node, inputs, vjp); inputs hold nodes and leaf tensors
        # what this tape's nodes carry; the tape itself would pin its records
        # for as long as any output tensor lives
        self.key = object()

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.records)


def _slot(t: Tensor, tape_key):
    """Where the tape with `tape_key` keeps `t`'s gradient: `t`'s node if
    that tape recorded `t`, else `t` itself, a leaf of that tape."""
    node = t.node
    return node if node is not None and node.tape is tape_key else t


def _record(out: Tensor, inputs: tuple, vjp):
    """Attach a backward rule to the active tape, if recording is on.

    The record holds a new node for `out` and, per input, its slot (see
    `_slot`), never an interior tensor; `out.node` points at the node.

    `vjp(grad_out)` returns one entry per input, in order: None ("no
    gradient flows to this input"), an array, or a function of no arguments
    that returns the array. It must capture only the arrays it reads, plus
    shapes and flags, never a tensor: what it captures stays alive until
    the sweep has run it. An array it returns may be `grad_out` itself or a
    view of it or of another input's gradient: `backward` writes only into
    the buffers leaves own, so VJPs must not write into a gradient either. A
    function is how a VJP hands over work that only a leaf needs (see
    `backward`); it must call numpy only, and may run on another thread.
    `grad_out` is released once the VJP returns, so nothing may keep it
    except through the arrays and functions the VJP hands back.
    """
    stack = _tape_stack()
    if stack and out.requires_grad:
        tape = stack[-1]
        inputs = tuple(_slot(t, tape.key) for t in inputs)
        out.node = _Node(tape.key)
        tape.records.append((out.node, inputs, vjp))


def _result(data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.node = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    _record(out, inputs, vjp)
    return out


def _leaf_worker() -> ThreadPoolExecutor:
    """The thread one `backward` sends its leaf contributions to (tests
    substitute it): started on the first one, joined when the sweep ends."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="phonolm-leaf-grad")


class _LeafPart:
    """One contribution to a leaf's gradient, added on the worker thread
    under the numpy error state `backward`'s caller set (which a thread does
    not inherit).

    It lets go of what it holds as it runs, so nothing the contribution
    reads outlives the add (the executor keeps a finished task a moment
    longer)."""

    __slots__ = ("leaf", "part", "errors")

    def __init__(self, leaf: Tensor, part, errors: dict):
        self.leaf, self.part, self.errors = leaf, part, errors

    def __call__(self):
        leaf, gin = self.leaf, self.part
        self.leaf = self.part = None
        with np.errstate(**self.errors):
            if callable(gin):
                gin = gin()
            if leaf.grad is None:
                leaf.grad = gin.copy()  # a VJP's array may be shared with another input
            else:
                leaf.grad += gin


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    A leaf is a tensor no record on `tape` produced. That includes a tensor
    another tape recorded: fed into `tape`, it gets `.grad` here like a
    parameter. Every contribution to a leaf goes to this call's worker
    thread as the sweep reaches it, and the worker adds them in that order
    into the leaf's own buffer: a copy of the first contribution when .grad
    was None, else the existing .grad, in place. A VJP's function for any
    other input runs here.

    The sweep consumes the tape: once a record's VJP has run, the record's
    output gradient is dropped and the record keeps no VJP, so it pins no
    array. The records themselves stay, with their nodes and leaves, so
    `len(tape)` is unchanged. Run `backward` once per tape: a second run
    raises ContractError before it touches anything.

    If a VJP raises, `backward` waits for the worker to finish what the
    sweep sent it and joins it, then re-raises. Each leaf's .grad then holds
    its old value plus the contributions of the records swept before the
    failing one; a failing leaf contribution (raised from the worker)
    likewise leaves the others added.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    records = tape.records
    if records and records[-1][2] is None:  # every sweep clears the last record's VJP first
        raise ContractError("backward already ran on this tape")
    _slot(loss, tape.key).grad = np.ones_like(loss.data)
    errors = np.geterr()
    adds = []  # one future per leaf contribution, in sweep order
    # leaving the block waits for every contribution sent, even when a VJP raises
    with _leaf_worker() as worker:
        for i in reversed(range(len(records))):
            node, inputs, vjp = records[i]
            records[i] = (node, inputs, None)
            gout, node.grad = node.grad, None
            if gout is None:
                continue
            gins = vjp(gout)
            gout = vjp = None  # the record's arrays go now, not at the next record
            for inp, gin in zip(inputs, gins):
                if gin is None or not inp.requires_grad:
                    continue
                if type(inp) is not _Node:
                    adds.append(worker.submit(_LeafPart(inp, gin, errors)))
                    continue
                if callable(gin):
                    gin = gin()
                # out of place: a VJP may hand back `gout` itself or a view of
                # it, which another input's gradient can share
                inp.grad = gin if inp.grad is None else inp.grad + gin
    for done in adds:
        done.result()


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add needs operands of one shape, got {a.data.shape} and {b.data.shape}")
    ga, gb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (g if ga else None, g if gb else None)

    return _result(a.data + b.data, (a, b), vjp)


_GELU_BLOCK = 1 << 15  # elements: a block's x, t, 0.5x, du and two outputs stay in a 2 MB L2


def gelu(x: Tensor) -> Tensor:
    # tanh-form gelu; smooth everywhere, which keeps finite-difference
    # gradient checks meaningful at any input (a relu kink would not).
    # powers spelled as multiplies: np.power is an order of magnitude slower.
    # The in-place steps compute exactly 0.5 * xd * (1 + tanh(c * (xd +
    # 0.044715 * xd³))) and, on a taped call, its derivative: each is the
    # same ufunc on the same operands as the plain expression (products and
    # sums commute). Every step is elementwise, so running them block by
    # block over the flattened input gives the bits of one pass over it,
    # while a block's arrays are still in cache. The tape keeps only the
    # derivative, one array of the input's size, and the VJP multiplies it
    # by the incoming gradient.
    c = np.sqrt(2.0 / np.pi)
    xd = x.data
    flat = xd.reshape(-1)
    data = np.empty(xd.shape)
    out = data.reshape(-1)
    taped = x.requires_grad and bool(_tape_stack())  # _record's condition
    slope = np.empty(xd.shape) if taped else None
    slopes = slope.reshape(-1) if taped else None
    width = min(flat.size, _GELU_BLOCK)
    t, half, du = np.empty(width), np.empty(width), np.empty(width)
    for lo in range(0, flat.size, _GELU_BLOCK):
        xb = flat[lo:lo + _GELU_BLOCK]
        n = xb.size
        tb, hb, db, ob = t[:n], half[:n], du[:n], out[lo:lo + n]
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= 0.044715
        tb += xb
        tb *= c
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=ob)
        np.multiply(0.5, xb, out=hb)
        if taped:
            np.multiply(xb, xb, out=db)
            db *= 3 * 0.044715
            db += 1.0
            db *= c
            sb = slopes[lo:lo + n]
            np.multiply(tb, tb, out=sb)  # the tail: 0.5x (1 - t²) du
            np.subtract(1.0, sb, out=sb)
            sb *= hb
            sb *= db
            np.multiply(ob, 0.5, out=db)  # the head: (t + 1) / 2
            sb += db
        ob *= hb

    def vjp(g):
        return (slope * g,)

    return _result(data, (x,), vjp)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None, layout=None) -> Tensor:
    """Matrix product: 2-D rows times a 2-D weight, or stacked N-D x N-D
    (equal leading dims).

    With a 2-D weight, the weight's gradient `Xᵀ·G` is handed to `backward`
    as a function (see there), and an optional 1-D `bias` is added in place
    to the product, which gives the bits of `a @ b + bias` as one record;
    its gradient, the sum of `G` over the rows, is also a function. Given a
    row `layout` (see the module docstring), `a` holds the layout's real
    rows, and `Xᵀ·G` is formed in the padded layout."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or ad.ndim != bd.ndim:
        raise ShapeError(f"matmul needs operands of one rank >= 2, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"inner dims differ: {ad.shape} @ {bd.shape}")
    if bias is not None and (bd.ndim != 2 or bias.data.shape != bd.shape[-1:]):
        raise ShapeError(f"bias {bias.data.shape} does not fit the weight {bd.shape}")
    if layout is not None:
        if bd.ndim != 2:
            raise ShapeError(f"a row layout needs a 2-D product, got {ad.shape} @ {bd.shape}")
        _check_layout(layout, len(ad))
    if bd.ndim == 2:
        data = ad @ bd
        has_bias = bias is not None
        if has_bias:
            data += bias.data

        def weight_grad(g):
            if layout is None:
                return ad.T @ g
            return _scatter(ad, layout).T @ _scatter(g, layout)

        def vjp(g):
            grads = (g @ bd.T, lambda: weight_grad(g))
            return grads + (lambda: g.sum(axis=0),) if has_bias else grads

        inputs = (a, b, bias) if has_bias else (a, b)
        return _result(data, inputs, vjp)
    if ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"leading dims differ: {ad.shape} @ {bd.shape}")

    def vjp(g):
        return (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g)

    return _result(ad @ bd, (a, b), vjp)


# ---------------------------------------------------------------------------
# softmax / cross-entropy
# ---------------------------------------------------------------------------


def softmax_rows(x: Tensor, scale: float, mask) -> Tensor:
    """Row softmax of `scale * x + mask` along the last axis, computed with
    max-subtraction: attention's scores in one record.

    `mask` is a constant array that broadcasts to `x`'s shape. -inf entries
    are legal (they get exactly zero probability; attention masks rely on
    this), NaN ones are not.
    """
    c = float(scale)
    s = x.data * c
    s += mask
    m = s.max(axis=-1, keepdims=True)
    if np.isnan(m).any():  # NaN propagates through max; cheaper than a full scan
        raise NumericError("softmax_rows: NaN in input")
    s -= m
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def vjp(g):
        gx = g * s
        dot = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= s
        gx *= c
        return (gx,)

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


_LN_EPS = 1e-5  # added to the variance before the square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each of the 2-D rows `x` to zero mean / unit variance, then
    affine.

    The variance is np.var's own arithmetic (mean, subtract, square, sum,
    divide) on the centred rows this function needs anyway."""
    xd, gd = x.data, gain.data
    if xd.ndim != 2:
        raise ShapeError(f"layer_norm takes 2-D rows, got {xd.shape}")
    d = xd.shape[-1]
    mu = xd.mean(axis=-1, keepdims=True)
    xhat = xd - mu
    data = np.square(xhat)
    inv = data.sum(axis=-1, keepdims=True)
    inv /= d
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gd, out=data)
    data += bias.data

    def vjp(g):
        gx = g * gd
        tmp = gx * xhat
        m2 = tmp.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=tmp)
        gx -= gx.mean(axis=-1, keepdims=True)
        gx -= tmp
        gx *= inv
        np.multiply(g, xhat, out=tmp)
        return (gx, tmp.sum(axis=0), g.sum(axis=0))

    return _result(data, (x, gain, bias), vjp)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: output shape ids.shape + (d,)."""
    idx = np.asarray(ids, dtype=np.int64)
    n = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"embedding id out of range [0, {n})")
    data = table.data[idx]
    shape = table.data.shape

    def vjp(g):
        gt = np.zeros(shape)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, shape[1]))
        return (gt,)

    return _result(np.ascontiguousarray(data), (table,), vjp)


def dropout(x: Tensor, p: float, rng: np.random.Generator, layout=None) -> Tensor:
    """Inverted dropout with a mask drawn from `rng` (replayable by reseeding).

    Given a row `layout`, `x` holds its real rows: the mask is drawn over the
    padded rows, as for the padded batch, and its real rows are kept."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    if layout is None:
        keep = rng.random(x.data.shape) >= p
    else:
        index, padded = _check_layout(layout, x.data.shape[0])
        keep = (rng.random((padded,) + x.data.shape[1:]) >= p)[index]
    factor = 1.0 / (1.0 - p)
    data = x.data * keep
    data *= factor

    def vjp(g):
        gx = g * keep
        gx *= factor
        return (gx,)

    return _result(data, (x,), vjp)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def concat(tensors) -> Tensor:
    """Rows of each tensor in turn: concatenation along axis 0."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors])
    bounds = np.cumsum([t.data.shape[0] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, bounds))  # row blocks of a contiguous g are contiguous

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
    shape = x.data.shape

    def vjp(g):
        gx = np.zeros(shape)
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
    shape = x.data.shape

    def vjp(g):
        gx = np.zeros(shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _result(data, (x,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = np.ascontiguousarray(x.data.reshape(shape))
    orig = x.data.shape

    def vjp(g):
        return (g.reshape(orig),)

    return _result(data, (x,), vjp)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = np.ascontiguousarray(x.data.transpose(axes))

    def vjp(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _result(data, (x,), vjp)


def _check_layout(layout, n_real: int) -> tuple:
    """The layout's (index, padded), or ShapeError unless it has `n_real`
    real rows."""
    index, padded = layout
    if len(index) != n_real:
        raise ShapeError(f"a layout of {len(index)} real rows does not fit {n_real} rows")
    return index, padded


def _scatter(rows: np.ndarray, layout) -> np.ndarray:
    """`rows` at the layout's real rows of a zeroed (padded, ...) array."""
    index, padded = layout
    out = np.zeros((padded,) + rows.shape[1:])
    out[index] = rows
    return out


def pad_rows(x: Tensor, layout) -> Tensor:
    """The real rows `x` at their places in the layout's zeroed padded rows."""
    index, _ = _check_layout(layout, x.data.shape[0])

    def vjp(g):
        return (g[index],)

    return _result(_scatter(x.data, layout), (x,), vjp)


def unpad_rows(x: Tensor, layout) -> Tensor:
    """The layout's real rows of the padded rows `x`, in order: `pad_rows`
    undone."""
    index, padded = layout
    if x.data.shape[0] != padded:
        raise ShapeError(f"unpad_rows expects {padded} padded rows, got {x.data.shape[0]}")

    def vjp(g):
        return (_scatter(g, layout),)

    return _result(x.data[index], (x,), vjp)


def pad_stack(tensors) -> Tensor:
    """Stack 2-D (T_i, d) tensors into (B, max T_i, d), zero-padding rows."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("pad_stack of zero tensors")
    d = tensors[0].data.shape[1]
    lens = [t.data.shape[0] for t in tensors]
    if any(t.data.ndim != 2 or t.data.shape[1] != d for t in tensors):
        raise ShapeError("pad_stack expects 2-D tensors with a common last dim")
    data = np.zeros((len(tensors), max(lens), d))
    for i, t in enumerate(tensors):
        data[i, : lens[i]] = t.data

    def vjp(g):
        return tuple(np.ascontiguousarray(g[i, :n]) for i, n in enumerate(lens))

    return _result(data, tuple(tensors), vjp)


def sum_axis(x: Tensor, axis: int) -> Tensor:
    data = x.data.sum(axis=axis)
    shape = x.data.shape

    def vjp(g):
        # a copy even where the broadcast is trivial: broadcast_to gives a
        # read-only view, and a gradient's owner may scale it in place
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _result(data, (x,), vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam with bias correction. Moment buffers are lazily shaped to params."""

    learning_rate: float
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(params, state: AdamState) -> None:
    """One Adam update of each of `params` from its own .grad, which is
    zeroed after."""
    params = list(params)
    for p in params:
        if p.grad is None:
            raise ContractError("missing gradient for a parameter")
        if p.grad.shape != p.data.shape:
            raise ContractError(f"grad shape {p.grad.shape} != param shape {p.data.shape}")
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    if [m.shape for m in state.m] != [p.data.shape for p in params]:
        raise ContractError("AdamState was initialized for a different parameter list")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    lr = state.learning_rate / bc1
    inv_sqrt_bc2 = 1.0 / np.sqrt(bc2)
    # one scratch buffer, viewed at each parameter's shape
    scratch = np.empty(max((p.data.size for p in params), default=0))
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        s = scratch[: g.size].reshape(g.shape)
        np.multiply(g, 1.0 - b1, out=s)
        m *= b1
        m += s
        g *= g
        np.multiply(g, 1.0 - b2, out=s)
        v *= b2
        v += s
        np.sqrt(v, out=s)
        s *= inv_sqrt_bc2
        s += ADAM_EPSILON
        np.divide(m, s, out=s)
        s *= lr
        p.data -= s
        g[...] = 0.0


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale each of `params`' .grad in place so that their global L2 norm
    is at most `max_norm`.

    Returns the pre-clip norm.
    """
    total = 0.0
    for p in params:
        if p.grad is None:
            raise ContractError("missing gradient in clip_grad_norm")
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        s = max_norm / norm
        for p in params:
            p.grad *= s
    return norm
