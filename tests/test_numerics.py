import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

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
    out = nm.softmax_rows(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_softmax_stability_under_shift():
    out = nm.softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [[1 / 3] * 3])


def test_softmax_closed_form():
    out = nm.softmax_rows(Tensor([[0.0, math.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(20, 7)) * 10)
    s = nm.softmax_rows(x).data.sum(axis=-1)
    assert np.abs(s - 1.0).max() <= 1e-9


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        nm.softmax_rows(Tensor([[0.0, np.nan]]))


def test_softmax_neg_inf_is_exact_zero():
    out = nm.softmax_rows(Tensor([[0.0, -np.inf, 0.0]]))
    assert out.data[0, 1] == 0.0


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


def test_backward_sum():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = nm.sum_all(w)
    backward(loss, tape)
    np.testing.assert_array_equal(w.grad, [1, 1, 1])


def test_backward_quadratic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = nm.sum_all(nm.mul(w, w))
    backward(loss, tape)
    np.testing.assert_allclose(w.grad, [2, 4])


def test_backward_rejects_nonscalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = nm.mul(w, w)
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
        h = nm.gelu(nm.add(nm.matmul(x, w1), b1))
        return nm.cross_entropy(nm.matmul(h, w2), targets)

    check_grads(make_loss, [w1, b1, w2])


# ---------------------------------------------------------------------------
# gradient checks for every op
# ---------------------------------------------------------------------------


def test_gradcheck_elementwise_and_shape_ops():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(4,)), requires_grad=True)

    def make_loss():
        y = nm.mul(nm.add(a, c), b)          # broadcast add
        y = nm.scale(y, 1.7)
        y = nm.transpose(y, (1, 0))
        y = nm.reshape(y, (2, 6))
        y = nm.concat([y, y], axis=0)
        y = nm.narrow(y, 1, 1, 4)
        y = nm.gather_rows(y, [0, 2, 2, 3])
        return nm.mean_all(nm.gelu(y))

    check_grads(make_loss, [a, b, c])


def test_gradcheck_layer_norm_softmax_embedding():
    rng = np.random.default_rng(12)
    table = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    gain = Tensor(np.ones(5), requires_grad=True)
    bias = Tensor(np.zeros(5), requires_grad=True)
    w = Tensor(rng.normal(0, 0.4, (5, 4)), requires_grad=True)
    ids = np.array([0, 3, 5, 3])

    def make_loss():
        x = nm.embedding(table, ids)
        x = nm.layer_norm(x, gain, bias)
        att = nm.softmax_rows(nm.matmul(x, nm.transpose(x, (1, 0))))
        x = nm.matmul(att, x)
        return nm.cross_entropy(nm.matmul(x, w), [1, 0, 2, 3])

    check_grads(make_loss, [table, gain, bias, w])


def test_gradcheck_dropout_pad_stack_stacked_matmul():
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.4, (3, 3)), requires_grad=True)

    def make_loss():
        drop_rng = np.random.default_rng(99)  # reseeded: identical mask per call
        x = nm.pad_stack([a, b])              # (2, 4, 3)
        x = nm.matmul(x, w)                   # N-D @ 2-D
        x = nm.dropout(x, 0.25, drop_rng)
        y = nm.matmul(x, nm.transpose(x, (0, 2, 1)))  # stacked N-D @ N-D
        return nm.mean_all(nm.sum_axis(y, 1))

    check_grads(make_loss, [a, b, w])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_grad_fresh_state_no_move():
    p = Tensor([1.0, -2.0], requires_grad=True)
    before = p.data.copy()
    adam_step([p], [np.zeros(2)], AdamState(learning_rate=0.1))
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_is_lr_times_sign():
    p = Tensor([0.0], requires_grad=True)
    adam_step([p], [np.array([2.5])], AdamState(learning_rate=0.1))
    # bias-corrected first step: m_hat/sqrt(v_hat) == sign(g) up to epsilon
    assert abs(p.data[0] + 0.1) < 1e-6


def test_adam_converges_on_quadratic():
    p = Tensor([0.0], requires_grad=True)
    state = AdamState(learning_rate=0.1)
    for _ in range(100):
        with Tape() as tape:
            diff = nm.add(p, Tensor([-3.0]))
            loss = nm.sum_all(nm.mul(diff, diff))
        backward(loss, tape)
        adam_step([p], [p.grad], state)
    assert abs(p.data[0] - 3.0) < 0.5


def test_adam_missing_grad_rejected():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        adam_step([p], [None], AdamState(learning_rate=0.1))


def test_adam_zeroes_grads_and_counts_steps():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([0.7])
    state = AdamState(learning_rate=0.01)
    adam_step([p], [p.grad], state)
    assert state.step_count == 1
    np.testing.assert_array_equal(p.grad, [0.0])
    assert state.m[0].shape == p.data.shape
    assert state.v[0].shape == p.data.shape


def test_clip_grad_norm():
    g1 = np.array([3.0, 0.0])
    g2 = np.array([4.0])
    norm = nm.clip_grad_norm([g1, g2], max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(np.sqrt((g1 * g1).sum() + (g2 * g2).sum()) - 1.0) < 1e-12


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
        adam_step([w], [w.grad], state)
    return w.data.tobytes()


def test_bit_identical_training_given_same_seed():
    assert _tiny_training_run(5) == _tiny_training_run(5)
    assert _tiny_training_run(5) != _tiny_training_run(6)


def test_parallel_forward_only_matches_sequential():
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(8, 8)))
    inputs = [Tensor(rng.normal(size=(3, 8))) for _ in range(16)]

    def fwd(x):
        return nm.softmax_rows(nm.matmul(x, w)).data

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
        y = nm.mul(w, w)           # w^2
        z = nm.add(y, y)           # 2 w^2
        loss = nm.sum_all(z)
    backward(loss, tape)
    np.testing.assert_allclose(w.grad, [8.0])


def test_backward_of_scalar_sums_keeps_0d_gradients():
    # add's VJP unbroadcasts a 0-d gradient; it must stay 0-d for sum_all's VJP
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = nm.add(nm.sum_all(w), nm.sum_all(w))
    backward(loss, tape)
    np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])


def test_backward_accumulates_without_writing_into_shared_gradients():
    # add hands the same gradient array to both inputs and concat hands out
    # views of it; accumulating into w's view must not change e's gradient
    w = Tensor([[1.0, 2.0]], requires_grad=True)
    e = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        both = nm.add(nm.concat([w, w]), e)
        loss = nm.sum_all(nm.mul(both, Tensor([[1.0, 2.0], [3.0, 4.0]])))
    backward(loss, tape)
    np.testing.assert_array_equal(e.grad, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(w.grad, [[4.0, 6.0]])
