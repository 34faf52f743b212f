import contextlib
import math
import multiprocessing
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Executor, Future, ThreadPoolExecutor

import numpy as np
import pytest

from phonolm import model as md
from phonolm import numerics as nm
from phonolm.numerics import (
    AdamState,
    ContractError,
    NumericError,
    ShapeError,
    Tape,
    Tensor,
    adam_step,
    backward,
)


def finite_difference_grad(fn, param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the scalar fn() w.r.t. param.data.

    fn must be a pure re-runnable forward pass (it reseeds its own rngs), so
    the only thing that changes between calls is the perturbed entry.
    """
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def _sum_of_squares(w: Tensor) -> Tensor:
    """The sum of w's squared entries as a (1, 1) tensor."""
    return nm.matmul(nm.reshape(w, (1, -1)), nm.reshape(w, (-1, 1)))


def check_grads(make_loss, params, tol=1e-4, h=1e-5):
    """Run taped backward once, then compare against finite differences."""
    with Tape() as tape:
        loss = make_loss()
    backward(loss, tape)
    worst = 0.0
    for p in params:
        assert p.grad is not None, "backward left a parameter without gradient"
        fd = finite_difference_grad(lambda: make_loss().item(), p, h=h)
        worst = max(worst, max_rel_error(p.grad, fd))
    assert worst < tol, f"gradient mismatch: max rel error {worst:.3e}"
    return worst


# ---------------------------------------------------------------------------
# spec'd examples
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = nm.matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])


def test_matmul_permutation():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(nm.matmul(a, b).data, [[0, 1], [1, 0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = nm.matmul(Tensor(a), Tensor(b)).data
    assert np.abs(got - want).max() <= 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_softmax_symmetry():
    out = nm.softmax_rows(Tensor([[0.0, 0.0]]), 1.0, 0.0)
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_softmax_stability_under_shift():
    out = nm.softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]]), 1.0, 0.0)
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [[1 / 3] * 3])


def test_softmax_closed_form():
    out = nm.softmax_rows(Tensor([[0.0, math.log(3.0)]]), 1.0, 0.0)
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(20, 7)) * 10)
    s = nm.softmax_rows(x, 1.0, 0.0).data.sum(axis=-1)
    assert np.abs(s - 1.0).max() <= 1e-9


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        nm.softmax_rows(Tensor([[0.0, np.nan]]), 1.0, 0.0)


def test_softmax_neg_inf_is_exact_zero():
    out = nm.softmax_rows(Tensor([[0.0, -np.inf, 0.0]]), 1.0, 0.0)
    assert out.data[0, 1] == 0.0


def test_softmax_scales_then_masks():
    # the softmax of 2 * [0, ln 3 / 2, 5] with the last entry masked out
    out = nm.softmax_rows(Tensor([[0.0, math.log(3.0) / 2, 5.0]]), 2.0, np.array([0.0, 0.0, -np.inf]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75, 0.0]], atol=1e-12)
    assert out.data[0, 2] == 0.0


def test_softmax_rejects_nan_from_the_mask():
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):  # inf + -inf
        nm.softmax_rows(Tensor([[np.inf, 0.0]]), 1.0, np.array([-np.inf, 0.0]))


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((2, 4)))
    loss = nm.cross_entropy(logits, [0, 3])
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_cross_entropy_confident_limit():
    logits = np.zeros((1, 5))
    logits[0, 2] = 200.0
    assert nm.cross_entropy(Tensor(logits), [2]).item() < 1e-12


def test_cross_entropy_hand_computed():
    loss = nm.cross_entropy(Tensor([[1.0, 2.0, 3.0]]), [0])
    assert abs(loss.item() - 2.4076) < 1e-4


def test_cross_entropy_out_of_range_target():
    with pytest.raises(IndexError):
        nm.cross_entropy(Tensor(np.zeros((1, 3))), [3])


def test_backward_sum(linear_head):
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = linear_head(w, 1.0)
    backward(loss, tape)
    np.testing.assert_array_equal(w.grad, [1, 1, 1])


def test_backward_quadratic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = _sum_of_squares(w)
    backward(loss, tape)
    np.testing.assert_allclose(w.grad, [2, 4])


def test_add_rejects_operands_of_different_shapes():
    # a constant operand too: the attention mask goes into softmax_rows
    row = Tensor(np.ones(4), requires_grad=True)
    grid = Tensor(np.ones((3, 4)), requires_grad=True)
    for a, b in [(grid, row), (row, grid), (row, Tensor(np.ones((3, 1)))), (grid, Tensor(np.zeros(4))),
                 (Tensor(np.zeros((1, 4))), grid)]:
        with pytest.raises(ShapeError):
            nm.add(a, b)


def test_backward_rejects_nonscalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = nm.add(w, w)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_backward_two_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(7)
    w1 = Tensor(rng.normal(0, 0.5, (5, 4)), requires_grad=True)
    b1 = Tensor(rng.normal(0, 0.1, (4,)), requires_grad=True)
    w2 = Tensor(rng.normal(0, 0.5, (4, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(6, 5)))
    targets = rng.integers(0, 3, size=6)

    def make_loss():
        h = nm.gelu(nm.matmul(x, w1, b1))
        return nm.cross_entropy(nm.matmul(h, w2), targets)

    check_grads(make_loss, [w1, b1, w2])


# ---------------------------------------------------------------------------
# gradient checks for every op
# ---------------------------------------------------------------------------


def test_gradcheck_elementwise_and_shape_ops(linear_head):
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(4,)), requires_grad=True)
    const = Tensor(rng.normal(size=(3, 4)))
    coeff = rng.normal(size=(4, 4))

    def make_loss():
        y = nm.add(nm.matmul(a, b, c), a)    # both operands need a gradient
        y = nm.add(const, y)                 # the first one needs none
        y = nm.transpose(y, (1, 0))
        y = nm.reshape(y, (2, 6))
        y = nm.concat([y, y])
        y = nm.narrow(y, 1, 1, 4)
        y = nm.gather_rows(y, [0, 2, 2, 3])
        return linear_head(nm.gelu(y), coeff)

    check_grads(make_loss, [a, b, c])


def test_gradcheck_layer_norm_softmax_embedding():
    rng = np.random.default_rng(12)
    table = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    gain = Tensor(np.ones(5), requires_grad=True)
    bias = Tensor(np.zeros(5), requires_grad=True)
    w = Tensor(rng.normal(0, 0.4, (5, 4)), requires_grad=True)
    ids = np.array([0, 3, 5, 3])
    causal = np.where(np.tril(np.ones((4, 4))) > 0, 0.0, -np.inf)

    def make_loss():
        x = nm.embedding(table, ids)
        x = nm.layer_norm(x, gain, bias)
        att = nm.softmax_rows(nm.matmul(x, nm.transpose(x, (1, 0))), 0.7, causal)
        x = nm.matmul(att, x)
        return nm.cross_entropy(nm.matmul(x, w), [1, 0, 2, 3])

    check_grads(make_loss, [table, gain, bias, w])


def test_gradcheck_dropout_pad_stack_stacked_matmul(linear_head):
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.4, (3, 3)), requires_grad=True)
    coeff = rng.normal(size=(2, 4))

    def make_loss():
        drop_rng = np.random.default_rng(99)  # reseeded: identical mask per call
        x = nm.pad_stack([a, b])              # (2, 4, 3)
        x = nm.reshape(nm.matmul(nm.reshape(x, (8, 3)), w), (2, 4, 3))
        x = nm.dropout(x, 0.25, drop_rng)
        y = nm.matmul(x, nm.transpose(x, (0, 2, 1)))  # stacked N-D @ N-D
        return linear_head(nm.sum_axis(y, 1), coeff)

    check_grads(make_loss, [a, b, w])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_grad_fresh_state_no_move():
    p = Tensor([1.0, -2.0], requires_grad=True)
    before = p.data.copy()
    p.grad = np.zeros(2)
    adam_step([p], AdamState(learning_rate=0.1))
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_is_lr_times_sign():
    p = Tensor([0.0], requires_grad=True)
    p.grad = np.array([2.5])
    adam_step([p], AdamState(learning_rate=0.1))
    # bias-corrected first step: m_hat/sqrt(v_hat) == sign(g) up to epsilon
    assert abs(p.data[0] + 0.1) < 1e-6


def test_adam_converges_on_quadratic():
    p = Tensor([0.0], requires_grad=True)
    state = AdamState(learning_rate=0.1)
    for _ in range(100):
        with Tape() as tape:
            loss = _sum_of_squares(nm.add(p, Tensor([-3.0])))
        backward(loss, tape)
        adam_step([p], state)
    assert abs(p.data[0] - 3.0) < 0.5


def test_adam_missing_grad_rejected():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        adam_step([p], AdamState(learning_rate=0.1))


def test_adam_rejects_a_gradient_of_another_shape_before_it_moves_anything():
    p = Tensor([1.0, 2.0], requires_grad=True)
    p.grad = np.ones(3)
    state = AdamState(learning_rate=0.1)
    with pytest.raises(ContractError, match=r"grad shape \(3,\) != param shape \(2,\)"):
        adam_step([p], state)
    np.testing.assert_array_equal(p.data, [1.0, 2.0])
    assert state.step_count == 0 and not state.m


@pytest.mark.parametrize("shapes", [[(1,), (1,)], [(2,)], [(1, 1)]], ids=["longer", "wider", "of_another_rank"])
def test_adam_rejects_a_state_built_for_another_parameter_list(shapes):
    # another list of the same length once passed the check and failed in numpy mid-update
    state = AdamState(learning_rate=0.1)
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([0.5])
    adam_step([p], state)
    moved = state.m[0].copy()
    others = [Tensor(np.ones(s), requires_grad=True) for s in shapes]
    for o in others:
        o.grad = np.full(o.data.shape, 0.5)
    with pytest.raises(ContractError, match="AdamState was initialized for a different parameter list"):
        adam_step(others, state)
    assert all((o.data == 1.0).all() for o in others)
    np.testing.assert_array_equal(state.m[0], moved)
    assert state.step_count == 1


def test_clip_grad_norm_rejects_a_missing_gradient():
    p, q = Tensor([3.0], requires_grad=True), Tensor([4.0], requires_grad=True)
    p.grad = np.array([3.0])
    with pytest.raises(ContractError, match="missing gradient in clip_grad_norm"):
        nm.clip_grad_norm([p, q], 1.0)
    np.testing.assert_array_equal(p.grad, [3.0])


def test_adam_zeroes_grads_and_counts_steps():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([0.7])
    state = AdamState(learning_rate=0.01)
    adam_step([p], state)
    assert state.step_count == 1
    np.testing.assert_array_equal(p.grad, [0.0])
    assert state.m[0].shape == p.data.shape
    assert state.v[0].shape == p.data.shape


def test_clip_grad_norm():
    p1, p2 = Tensor([0.0, 0.0], requires_grad=True), Tensor([0.0], requires_grad=True)
    p1.grad, p2.grad = np.array([3.0, 0.0]), np.array([4.0])
    norm = nm.clip_grad_norm([p1, p2], max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(np.sqrt((p1.grad * p1.grad).sum() + (p2.grad * p2.grad).sum()) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# determinism / concurrency
# ---------------------------------------------------------------------------


def _tiny_training_run(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(0, 0.1, (6, 6)), requires_grad=True)
    state = AdamState(learning_rate=1e-2)
    drop = np.random.default_rng(seed + 1)
    x = Tensor(rng.normal(size=(4, 6)))
    for step in range(20):
        with Tape() as tape:
            h = nm.dropout(nm.gelu(nm.matmul(x, w)), 0.1, drop)
            loss = nm.cross_entropy(h, [0, 1, 2, 3])
        backward(loss, tape)
        adam_step([w], state)
    return w.data.tobytes()


def test_bit_identical_training_given_same_seed():
    assert _tiny_training_run(5) == _tiny_training_run(5)
    assert _tiny_training_run(5) != _tiny_training_run(6)


def test_parallel_forward_only_matches_sequential():
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(8, 8)))
    inputs = [Tensor(rng.normal(size=(3, 8))) for _ in range(16)]

    def fwd(x):
        return nm.softmax_rows(nm.matmul(x, w), 1.0, 0.0).data

    sequential = [fwd(x) for x in inputs]
    with ThreadPoolExecutor(max_workers=4) as ex:
        parallel = list(ex.map(fwd, inputs))
    for s, p in zip(sequential, parallel):
        np.testing.assert_array_equal(s, p)


def test_tape_records_only_when_grad_needed():
    x = Tensor(np.ones((2, 2)))
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        nm.matmul(x, Tensor(np.ones((2, 2))))  # no grad anywhere
        nm.matmul(x, w)
    assert len(tape) == 1


def test_backward_visits_each_record_once_via_fanout_accumulation():
    # y used twice: grads must accumulate, not overwrite
    w = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        y = _sum_of_squares(w)     # w^2
        loss = nm.add(y, y)        # 2 w^2
    backward(loss, tape)
    np.testing.assert_allclose(w.grad, [8.0])


def test_backward_of_scalar_sums_keeps_0d_gradients():
    # cross_entropy's output is 0-d; add hands its 0-d gradient on to both
    w = Tensor([[0.0, 0.0]], requires_grad=True)
    with Tape() as tape:
        loss = nm.add(nm.cross_entropy(w, [0]), nm.cross_entropy(w, [0]))
    assert loss.shape == ()
    backward(loss, tape)
    np.testing.assert_array_equal(w.grad, [[-1.0, 1.0]])


def test_backward_accumulates_without_writing_into_shared_gradients(linear_head):
    # add hands the same gradient array to both inputs and concat hands out
    # views of it; accumulating into w's view must not change e's gradient
    w = Tensor([[1.0, 2.0]], requires_grad=True)
    e = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        both = nm.add(nm.concat([w, w]), e)
        loss = linear_head(both, np.array([[1.0, 2.0], [3.0, 4.0]]))
    backward(loss, tape)
    np.testing.assert_array_equal(e.grad, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(w.grad, [[4.0, 6.0]])


def test_concurrent_backward_calls_train_as_if_serial():
    # several threads run backward at once, each with its own leaf-gradient
    # worker; a short switch interval makes them interleave inside backward
    serial = [_tiny_training_run(seed) for seed in range(6)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as ex:
            threaded = list(ex.map(_tiny_training_run, range(6)))
    finally:
        sys.setswitchinterval(old)
    assert threaded == serial


# ---------------------------------------------------------------------------
# leaf gradients on the worker thread
# ---------------------------------------------------------------------------


def _run_inline(fn) -> Future:
    done = Future()
    done.set_result(fn())
    return done


class _Worker(Executor):
    """Stands in for the worker `backward` starts: `submit` is the given function."""

    def __init__(self, submit):
        self.submit = submit


def _tiny_ar_case():
    """A 2-block AR decoder with dropout and a fixed ragged batch."""
    cfg = md.ModelConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32, dropout=0.1, phoneme_vocab=7,
                         phonetic_vocab=9, codec_vocab=5, n_codec_layers=2, max_sequence_len=32)
    model = md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=3)
    rng = np.random.default_rng(4)
    items = [(rng.integers(0, 7, 5), rng.integers(0, 9, 3), rng.integers(0, 9, n)) for n in (4, 7, 2)]
    return model, items


def _tiny_model_weights(steps: int) -> bytes:
    """Train the tiny AR case; return its weight bytes."""
    model, items = _tiny_ar_case()
    drop = np.random.default_rng(5)
    state = AdamState(learning_rate=1e-2)
    params = model.parameters()
    for _ in range(steps):
        with Tape() as tape:
            logits, targets = md.ar_batch_logits(model, items, rng=drop)
            loss = nm.cross_entropy(logits, targets)
        backward(loss, tape)
        nm.clip_grad_norm(params, 1.0)
        adam_step(params, state)
    return b"".join(p.data.tobytes() for p in params)


def test_worker_and_inline_leaf_gradients_train_identical_weights(monkeypatch):
    submitted = []
    real_worker = nm._leaf_worker

    @contextlib.contextmanager
    def counting_worker():
        with real_worker() as worker:
            yield _Worker(lambda fn: submitted.append(fn) or worker.submit(fn))

    monkeypatch.setattr(nm, "_leaf_worker", counting_worker)
    on_worker = _tiny_model_weights(3)
    assert submitted, "no leaf gradient went to the worker"
    monkeypatch.setattr(nm, "_leaf_worker", lambda: _Worker(_run_inline))
    assert _tiny_model_weights(3) == on_worker


def test_gradcheck_interior_weight_runs_inline(linear_head):
    # the matmul's weight operand is a reshape output, so its gradient
    # function must run on the calling thread, never on the worker
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.5, (2, 10)), requires_grad=True)
    coeff = rng.normal(size=(6, 5))

    def make_loss():
        y = nm.matmul(x, nm.reshape(w, (4, 5)))  # interior weight
        return linear_head(nm.gelu(y), coeff)

    with Tape() as tape:
        loss = make_loss()
    i = next(i for i, (_, inputs, _) in enumerate(tape.records) if len(inputs) == 2)  # the matmul
    node, inputs, vjp = tape.records[i]
    assert isinstance(inputs[1], nm._Node)
    ran_on = []

    def noting_thread(part):
        def run():
            ran_on.append(threading.current_thread())
            return part()
        return run

    tape.records[i] = (node, inputs, lambda g: tuple(noting_thread(p) if callable(p) else p for p in vjp(g)))
    backward(loss, tape)
    assert ran_on == [threading.current_thread()], "an interior operand's gradient went to the worker"
    for p in (x, w):
        p.grad = None
    check_grads(make_loss, [x, w])


def test_leaf_gradient_error_is_raised_by_backward():
    w = Tensor(np.ones((2, 2)), requires_grad=True)

    def failing_vjp(g):
        def leaf_grad():
            raise FloatingPointError("leaf gradient failed")
        return (leaf_grad,)

    with Tape() as tape:
        out = nm._result(np.asarray(w.data.sum()), (w,), failing_vjp)
    with pytest.raises(FloatingPointError):
        backward(out, tape)


@pytest.mark.parametrize("first_raises", [False, True], ids=["after-a-sweep", "after-a-failed-sweep"])
def test_a_second_backward_on_a_tape_raises_before_it_touches_a_gradient(first_raises, linear_head):
    # the add hands w its part before the record swept last, whose VJP may raise
    w = Tensor(np.ones(3), requires_grad=True)

    def last_vjp(g):
        if first_raises:
            raise FloatingPointError("vjp failed")
        return (g * 2.0,)

    with Tape() as tape:
        loss = linear_head(nm.add(nm._result(w.data * 2.0, (w,), last_vjp), w), 1.0)
    with pytest.raises(FloatingPointError) if first_raises else contextlib.nullcontext():
        backward(loss, tape)
    before = w.grad.copy()
    np.testing.assert_array_equal(before, [1.0] * 3 if first_raises else [3.0] * 3)
    with pytest.raises(ContractError, match="backward already ran on this tape"):
        backward(loss, tape)
    assert w.grad.tobytes() == before.tobytes()


def test_leaf_contributions_summed_in_sweep_order_onto_existing_grad(linear_head):
    # w feeds a matmul (its gradient is a function run on the worker) and an
    # add (a plain array). The add is recorded last, so it is swept first:
    # w.grad must be exactly (old + add's part) + matmul's part
    rng = np.random.default_rng(15)
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 3)))
    coeff = rng.normal(size=(3, 3))
    old = rng.normal(size=(3, 3))
    w.grad = old.copy()
    with Tape() as tape:
        y = nm.matmul(x, w)
        loss = linear_head(nm.add(y, w), coeff)
    backward(loss, tape)
    want = (old + coeff) + x.data.T @ coeff
    assert want.tobytes() != ((old + x.data.T @ coeff) + coeff).tobytes()  # the order shows
    assert w.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("vjp_raises", [False, True], ids=["returns", "raises"])
def test_backward_joins_its_worker_before_it_returns_or_raises(vjp_raises, linear_head):
    # w's part goes to the worker before the record swept last, whose VJP may raise
    w = Tensor(np.ones(3), requires_grad=True)
    ran_on = []

    def noting_thread(g):
        def leaf_grad():
            ran_on.append(threading.current_thread())
            return g
        return (leaf_grad,)

    def last_vjp(g):
        if vjp_raises:
            raise FloatingPointError("vjp failed")
        return (None,)

    with Tape() as tape:
        last = nm._result(w.data * 1.0, (w,), last_vjp)
        part = nm._result(w.data * 2.0, (w,), noting_thread)
        loss = linear_head(nm.add(part, last), 1.0)
    with pytest.raises(FloatingPointError) if vjp_raises else contextlib.nullcontext():
        backward(loss, tape)
    (worker,) = ran_on
    assert worker.name.startswith("phonolm-leaf-grad")
    assert not worker.is_alive()
    assert [t for t in threading.enumerate() if t.name.startswith("phonolm-leaf-grad")] == []
    np.testing.assert_array_equal(w.grad, np.ones(3))


def _train_in_child(conn):
    conn.send(_tiny_model_weights(2))
    conn.close()


def test_forked_child_starts_its_own_worker():
    parent_bytes = _tiny_model_weights(2)  # the parent's worker now exists
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_train_in_child, args=(send,))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child hung in backward"
        child_bytes = recv.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert not child.is_alive()
    assert child.exitcode == 0
    assert child_bytes == parent_bytes


# ---------------------------------------------------------------------------
# in-place kernels against their plain expressions
# ---------------------------------------------------------------------------


def _vjp_of(make, x, g):
    with Tape() as tape:
        out = make(x)
    (_, _, vjp), = [r for r in tape.records if r[0] is out.node]
    return out.data, vjp(g)


def _plain_gelu(xd):
    """gelu and its derivative at `xd`, as plain numpy expressions."""
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (xd + 0.044715 * (xd * xd * xd)))
    du = c * (1.0 + 3 * 0.044715 * (xd * xd))
    return 0.5 * xd * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du


@pytest.mark.parametrize("shape", [(3, 5, 8), (2, 65, 512), (70, 1000), (40000,), (0,), (0, 512)],
                         ids=["small", "three-blocks", "ragged-rows", "1-D", "empty", "no-rows"])
def test_gelu_blocks_match_the_plain_expressions_bitwise(shape):
    # the kernel runs in blocks of nm._GELU_BLOCK (32768) elements: the
    # large shapes span two or three each, the last one ragged
    rng = np.random.default_rng(16)
    xd = rng.normal(size=shape) * 2
    g = rng.normal(size=shape)
    want, slope = _plain_gelu(xd)
    out, (gx,) = _vjp_of(nm.gelu, Tensor(xd, requires_grad=True), g)
    assert out.shape == shape and gx.shape == shape
    assert out.tobytes() == want.tobytes()
    assert gx.tobytes() == (g * slope).tobytes()
    # untaped, the kernel skips the derivative and must give the same output
    assert nm.gelu(Tensor(xd, requires_grad=True)).data.tobytes() == want.tobytes()
    with Tape():
        assert nm.gelu(Tensor(xd)).data.tobytes() == want.tobytes()


def test_inplace_kernels_match_plain_expressions_bitwise():
    # each op must compute exactly what its plain numpy expression does
    # (gelu's own test is above)
    rng = np.random.default_rng(16)
    xd = rng.normal(size=(3, 5, 8)) * 2
    g = rng.normal(size=xd.shape)
    x = Tensor(xd, requires_grad=True)

    mask = np.where(rng.random((3, 1, 8)) < 0.3, -np.inf, 0.0)
    mask[..., 0] = 0.0  # every row keeps a key
    z = xd * 0.35 + mask
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    out, (gx,) = _vjp_of(lambda t: nm.softmax_rows(t, 0.35, mask), x, g)
    assert out.tobytes() == s.tobytes()
    assert gx.tobytes() == ((s * (g - (g * s).sum(axis=-1, keepdims=True))) * 0.35).tobytes()

    rows, g2 = xd.reshape(15, 8), g.reshape(15, 8)
    gain = Tensor(rng.normal(size=8), requires_grad=True)
    bias = Tensor(rng.normal(size=8), requires_grad=True)
    mu = rows.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(rows.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (rows - mu) * inv
    out, (gx, ggain, gbias) = _vjp_of(lambda t: nm.layer_norm(t, gain, bias), Tensor(rows, requires_grad=True), g2)
    assert out.tobytes() == (xhat * gain.data + bias.data).tobytes()
    gg = g2 * gain.data
    want = inv * (gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
    assert gx.tobytes() == want.tobytes()
    assert ggain.tobytes() == (g2 * xhat).sum(axis=0).tobytes()
    assert gbias.tobytes() == g2.sum(axis=0).tobytes()

    keep = np.random.default_rng(17).random(xd.shape) >= 0.3
    out, (gx,) = _vjp_of(lambda t: nm.dropout(t, 0.3, np.random.default_rng(17)), x, g)
    assert out.tobytes() == (xd * keep * (1.0 / 0.7)).tobytes()
    assert gx.tobytes() == (g * keep * (1.0 / 0.7)).tobytes()


def test_adam_step_matches_plain_update_bitwise():
    rng = np.random.default_rng(18)
    shapes = [(4, 3), (7,), (2, 2, 2)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    state = AdamState(learning_rate=1e-2)
    for t in range(1, 4):
        grads = [rng.normal(size=s) for s in shapes]
        plain = [gr.copy() for gr in grads]
        for p, gr in zip(params, grads):
            p.grad = gr
        adam_step(params, state)
        b1, b2 = nm.ADAM_BETA1, nm.ADAM_BETA2
        for i, gr in enumerate(plain):
            m[i] = b1 * m[i] + (1.0 - b1) * gr
            v[i] = b2 * v[i] + (1.0 - b2) * (gr * gr)
            denom = np.sqrt(v[i]) * (1.0 / np.sqrt(1.0 - b2**t)) + nm.ADAM_EPSILON
            ref[i] = ref[i] - (m[i] / denom) * (state.learning_rate / (1.0 - b1**t))
        for p, r, gr in zip(params, ref, grads):
            assert p.data.tobytes() == r.tobytes()
            assert not gr.any()


def test_row_ops_reject_input_that_is_not_2d_rows():
    # a 2-D weight and layer norm take rows: a batch reshapes to them first
    w, gain, bias = Tensor(np.ones((5, 6))), Tensor(np.ones(5)), Tensor(np.zeros(5))
    for shape in [(2, 3, 5), (1, 1, 5), (2, 2, 2, 5), (5,)]:
        with pytest.raises(ShapeError):
            nm.matmul(Tensor(np.ones(shape)), w)
        with pytest.raises(ShapeError):
            nm.layer_norm(Tensor(np.ones(shape)), gain, bias)
    assert nm.matmul(Tensor(np.ones((4, 5))), w).shape == (4, 6)
    assert nm.layer_norm(Tensor(np.ones((4, 5))), gain, bias).shape == (4, 5)


def test_numerics_keeps_no_scale_or_zero_filled_gradients():
    assert not hasattr(nm, "scale") and not hasattr(nm, "fill_missing_grads")


def test_gradients_are_writable_after_a_trivial_broadcast(linear_head):
    # sum_axis over a size-1 axis once handed out a read-only broadcast view,
    # which clip_grad_norm could not scale in place
    w = Tensor(np.ones((2, 1, 3)), requires_grad=True)
    with Tape() as tape:
        loss = linear_head(nm.reshape(nm.sum_axis(w, 1), (3, 2)), 1.0)
    backward(loss, tape)
    assert nm.clip_grad_norm([w], 0.5) == pytest.approx(math.sqrt(6))
    np.testing.assert_allclose(w.grad, np.full((2, 1, 3), 0.5 / math.sqrt(6)))


# ---------------------------------------------------------------------------
# buffer ownership: bias in matmul, consumed interior gradients, leaf buffers
# ---------------------------------------------------------------------------


def test_matmul_bias_matches_matmul_then_add_bitwise(linear_head):
    rng = np.random.default_rng(20)
    xd, wd, bd = rng.normal(size=(7, 5)), rng.normal(size=(5, 6)), rng.normal(size=6)
    gout = rng.normal(size=(7, 6))  # the head hands the product exactly this gradient
    fused = [Tensor(a, requires_grad=True) for a in (xd, wd, bd)]
    with Tape() as tape:
        out = nm.matmul(*fused)
        loss = linear_head(out, gout)
    backward(loss, tape)
    got = [out.data] + [t.grad for t in fused]
    want = [xd @ wd + bd, gout @ wd.T, xd.T @ gout, gout.sum(axis=0)]
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_gradcheck_matmul_bias(linear_head):
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.5, (4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    coeff = rng.normal(size=(6, 5))
    check_grads(lambda: linear_head(nm.gelu(nm.matmul(x, w, b)), coeff), [x, w, b])


def test_matmul_bias_shape_checked():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        nm.matmul(x, w, Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        nm.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 4))), Tensor(np.ones(4)))


def _tiny_ar_step_tape():
    model, items = _tiny_ar_case()
    with Tape() as tape:
        logits, targets = md.ar_batch_logits(model, items, rng=np.random.default_rng(5))
        loss = nm.cross_entropy(logits, targets)
    return model, tape, loss


def test_backward_leaves_gradients_on_leaves_only():
    model, tape, loss = _tiny_ar_step_tape()
    backward(loss, tape)
    produced = {id(node) for node, _, _ in tape.records}
    assert all(node.grad is None for node, _, _ in tape.records)
    leaves = [t for _, inputs, _ in tape.records for t in inputs if t.requires_grad and id(t) not in produced]
    assert leaves and all(t.grad is not None for t in leaves)
    assert {id(t) for t in leaves} <= {id(p) for p in model.parameters()}


def test_leaves_added_together_own_their_gradient_buffers(linear_head):
    # add's VJP hands both inputs the same array; clipping scales each
    # leaf's buffer in place, so a shared buffer would be scaled twice
    a = Tensor([3.0, 4.0], requires_grad=True)
    b = Tensor([0.0, 0.0], requires_grad=True)
    with Tape() as tape:
        loss = linear_head(nm.add(a, b), 1.0)
    backward(loss, tape)
    assert not np.shares_memory(a.grad, b.grad)
    nm.clip_grad_norm([a, b], 1.0)
    assert math.sqrt(float((a.grad**2).sum() + (b.grad**2).sum())) == pytest.approx(1.0)


def test_backward_accumulates_into_the_existing_leaf_buffer():
    # the second step adds into the buffers the first left behind, and the
    # result is the bits of a fresh 0.0 + g
    model, tape, loss = _tiny_ar_step_tape()
    params = model.parameters()
    for p in params:
        p.grad = np.zeros_like(p.data)
    buffers = [p.grad for p in params]
    backward(loss, tape)
    assert all(p.grad is buf for p, buf in zip(params, buffers))
    model2, tape2, loss2 = _tiny_ar_step_tape()
    backward(loss2, tape2)
    for p, p2 in zip(params, model2.parameters()):
        want = np.zeros_like(p2.data) if p2.grad is None else 0.0 + p2.grad
        assert p.grad.tobytes() == want.tobytes()


def _nar_step_tape():
    """A fixed 2-block NAR training step, recorded but not yet swept."""
    cfg = md.ModelConfig(n_layers=2, n_heads=2, d_model=32, d_ff=128, dropout=0.1, phoneme_vocab=10,
                         phonetic_vocab=12, codec_vocab=8, n_codec_layers=4, max_sequence_len=128)
    model = md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=2)
    rng = np.random.default_rng(3)
    items = []
    for _ in range(4):
        n_frames = int(rng.integers(15, 25))
        items.append((rng.integers(0, 10, int(rng.integers(6, 10))), rng.integers(0, 12, n_frames),
                      rng.integers(0, 8, (int(rng.integers(8, 14)), 4)), rng.integers(0, 8, (n_frames, 1)), 2))
    labels = rng.integers(0, 8, sum(item[3].shape[0] for item in items))
    with Tape() as tape:
        logits = md.nar_batch_logits(model, items, rng=np.random.default_rng(5))
        loss = nm.cross_entropy(logits, labels)
    return tape, loss


def _recording(make):
    """Run `make()`; return its result and, per output a tape recorded
    meanwhile, a weak reference to its array and the array's size."""
    outputs = []
    record = nm._record

    def hooked(out, inputs, vjp):
        record(out, inputs, vjp)
        if out.node is not None:
            outputs.append((weakref.ref(out.data), out.data.nbytes))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nm, "_record", hooked)
        return make(), outputs


def test_backward_frees_interior_gradients_as_it_goes():
    # kept until the tape died, the interior gradients took as many bytes
    # as the activations (a rise of ~0.7 of them); consumed, ~0.2
    (tape, loss), outputs = _recording(_nar_step_tape)
    held = sum(nbytes for _, nbytes in outputs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < held / 3, f"backward's peak rose {peak - base} bytes over {held} the tape's outputs took"


# ---------------------------------------------------------------------------
# what the tape keeps alive
# ---------------------------------------------------------------------------


def _probe(x: Tensor, when_swept) -> Tensor:
    """An identity op whose VJP calls `when_swept()` as the sweep passes it."""
    def vjp(g):
        when_swept()
        return (g,)

    return nm._result(x.data, (x,), vjp)


def test_backward_skips_a_record_whose_output_got_no_gradient(linear_head):
    # the loss reads nothing of `unread`, so the sweep passes its record by
    w = Tensor(np.ones(3), requires_grad=True)
    ran = []
    with Tape() as tape:
        unread = _probe(w, lambda: ran.append("unread"))
        loss = linear_head(_probe(w, lambda: ran.append("read")), 2.0)
    assert unread.node is not None and len(tape) == 4  # two probes, the head's reshape and product
    backward(loss, tape)
    assert ran == ["read"]
    np.testing.assert_array_equal(w.grad, np.full(3, 2.0))


@pytest.mark.parametrize("consume, dx", [
    (lambda s, x: nm.add(s, x), 3.0),  # add's VJP reads flags only
    (lambda s, x: nm.gelu(s), 2.0 * _plain_gelu(2.0)[1]),  # gelu's reads only its derivative
    # the row ops' VJPs read only the row layout
    (lambda s, x: nm.pad_rows(s, (np.array([0, 2, 3, 5]), 6)), 2.0),
    (lambda s, x: nm.unpad_rows(s, (np.array([0, 2]), 4)), np.array([[2.0], [0.0], [2.0], [0.0]])),
], ids=["add", "gelu", "pad_rows", "unpad_rows"])
def test_an_output_no_vjp_reads_dies_with_the_callers_reference(consume, dx, linear_head):
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    with Tape() as tape:
        s = nm.add(x, x)
        loss = linear_head(consume(s, x), 1.0)
    scaled = weakref.ref(s.data)
    del s
    assert scaled() is None
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.full((4, 4), dx))


def _packed_case(rng):
    """Real rows of a batch padded to 512 rows (about 3 in 4 real), a row
    layout for them, and a weight and bias: enough rows that the BLAS
    splits a padded Xᵀ·G otherwise than a packed one."""
    real = np.sort(rng.choice(512, 389, replace=False))
    x = Tensor(rng.normal(size=(len(real), 64)), requires_grad=True)
    w = Tensor(rng.normal(size=(64, 64)), requires_grad=True)
    c = Tensor(rng.normal(size=(64,)), requires_grad=True)
    return x, w, c, (real, 512)


def test_a_layout_matmul_gives_the_padded_products_bits(linear_head):
    rng = np.random.default_rng(41)
    x, w, c, layout = _packed_case(rng)
    coeff = rng.normal(size=(len(layout[0]), w.shape[1]))

    def grads(make_loss):
        for t in (x, w, c):
            t.grad = None
        with Tape() as tape:
            out, loss = make_loss()
        backward(loss, tape)
        return out.data, x.grad, w.grad, c.grad

    def packed():
        out = nm.matmul(x, w, c, layout)
        return out, linear_head(out, coeff)

    def padded():  # zero rows in the padding, whose gradient is zero too
        out = nm.matmul(nm.pad_rows(x, layout), w, c)
        return out, linear_head(out, nm._scatter(coeff, layout))

    got, want = grads(packed), grads(padded)
    np.testing.assert_array_equal(got[0], want[0][layout[0]])
    for name, g, h in zip(("x", "w", "bias"), got[1:], want[1:]):
        assert g.tobytes() == h.tobytes(), f"{name}.grad differs from the padded product's"


def test_a_layout_dropout_keeps_the_real_rows_of_the_padded_mask():
    rng = np.random.default_rng(42)
    x, _, _, layout = _packed_case(rng)
    padded = nm.dropout(nm.pad_rows(x, layout), 0.3, np.random.default_rng(6))
    packed = nm.dropout(x, 0.3, np.random.default_rng(6), layout)
    assert packed.data.tobytes() == padded.data[layout[0]].tobytes()


def test_layout_ops_reject_rows_their_layout_does_not_have():
    layout = (np.array([0, 2, 3]), 4)
    three, four = Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2)))
    w = Tensor(np.ones((2, 2)))
    for call in (lambda: nm.matmul(four, w, layout=layout),
                 lambda: nm.matmul(Tensor(np.ones((1, 3, 2))), w, layout=layout),  # a layout's rows are 2-D
                 lambda: nm.dropout(four, 0.5, np.random.default_rng(0), layout),
                 lambda: nm.pad_rows(four, layout), lambda: nm.unpad_rows(three, layout)):
        with pytest.raises(ShapeError):
            call()
    np.testing.assert_array_equal(nm.unpad_rows(nm.pad_rows(three, layout), layout).data, three.data)


def test_an_array_a_vjp_reads_lives_until_the_sweep_runs_its_record(monkeypatch, linear_head):
    # matmul's VJP reads its interior operand for the weight's gradient,
    # which goes to the worker as a function of that operand. The tasks
    # are kept past their run, as an executor may keep a finished one.
    kept = []

    def keeping_submit(fn):
        kept.append(fn)
        return _run_inline(fn)

    monkeypatch.setattr(nm, "_leaf_worker", lambda: _Worker(keeping_submit))
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    seen = []
    with Tape() as tape:
        a = nm.add(x, x)
        operand = weakref.ref(a.data)
        y = _probe(nm.matmul(a, w), lambda: seen.append(operand() is not None))  # swept just before the matmul
        loss = linear_head(y, 1.0)
    del a, y
    assert operand() is not None
    backward(loss, tape)
    assert seen == [True] and kept
    assert operand() is None
    np.testing.assert_array_equal(w.grad, (2.0 * x.data).T @ np.ones((3, 2)))


def test_backward_leaves_the_tape_pinning_no_activation():
    (model, tape, loss), outputs = _recording(_tiny_ar_step_tape)
    n_records = len(tape)
    assert any(ref() is None for ref, _ in outputs), "every output outlived its caller"
    backward(loss, tape)
    del loss
    assert [ref for ref, _ in outputs if ref() is not None] == []
    assert len(tape) == n_records
    assert all(vjp is None for _, _, vjp in tape.records)


def test_a_tensor_from_another_tape_is_a_leaf_of_this_one():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as first:
        h = nm.add(w, w)
    with Tape() as second:
        loss = _sum_of_squares(h)
    backward(loss, second)
    np.testing.assert_array_equal(h.grad, [4.0, 8.0])
    assert w.grad is None


def test_a_vjp_raising_mid_sweep_leaves_the_earlier_leaf_parts_added(linear_head):
    # the matmul is swept before the failing record, so its part (a
    # function, run on the worker) is in w.grad when backward re-raises
    x = Tensor([[3.0, 4.0]])
    w = Tensor([[1.0], [2.0]], requires_grad=True)
    w.grad = np.array([[10.0], [20.0]])

    def failing_vjp(g):
        raise FloatingPointError("vjp failed")

    with Tape() as tape:
        early = nm._result(w.data * 1.0, (w,), failing_vjp)
        loss = nm.add(nm.matmul(x, w), linear_head(early, 1.0))
    with pytest.raises(FloatingPointError):
        backward(loss, tape)
    np.testing.assert_array_equal(w.grad, [[13.0], [24.0]])


def test_leaf_parts_are_added_under_the_callers_error_state(linear_head):
    # w's two parts, inf and -inf, meet in the worker's add; the caller
    # asked invalid operations to raise, and a thread does not inherit that
    w = Tensor(np.full((2, 1), 0.25), requires_grad=True)
    x = Tensor(np.full((1, 2), 1e308))
    with Tape() as tape:
        both = nm.concat([nm.matmul(x, w), nm.matmul(Tensor(-x.data), w)])
        loss = linear_head(both, 2.0)
    with np.errstate(over="ignore", invalid="raise"), pytest.raises(FloatingPointError):
        backward(loss, tape)
