"""Acceptance suite: every gate below prints one PASS/FAIL line.

Run with:

    pytest tests/test_acceptance.py -v -s

Gates 1-4 are self-contained property checks: gradient correctness against
finite differences, exact oracle and nearest-centroid equivalence, quantizer
monotonicity, and the 2:3 upsampler law. No gate here trains a system or
compares the proposed system with the baseline yet.
"""

import json
import math
import time

import numpy as np
import pytest

from phonolm import evaluation as ev
from phonolm import model as md
from phonolm import numerics as nm
from phonolm import pipeline as pl
from phonolm import quantizer as qz
from phonolm import tokenworld as tw
from phonolm.numerics import Tape, Tensor, backward

# Pre-registered budget of the proposed-vs-baseline experiment (ROADMAP item 6).
# No gate uses these yet; they are fixed here before that experiment is run.
WORLD_SEED = 7
QUANT_SEED = 7
TRAIN_SEEDS = (101, 102, 103, 104, 105)
N_TRAIN = 500
N_TEST = 40
N_PROMPTS = 24
AR_STEPS = 800
NAR_STEPS = 1500
BATCH = 8
LR = 1e-3
SPLITS = ("test_clean", "test_other")


def gate(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness on random mini-networks
# ---------------------------------------------------------------------------


def _fd_grad(fn, param, h=1e-5):
    grad = np.zeros_like(param.data)
    flat, gflat = param.data.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def _rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def _net_mlp(rng, head):
    w1 = Tensor(rng.normal(0, 0.5, (4, 5)), requires_grad=True)
    b1 = Tensor(rng.normal(0, 0.2, (5,)), requires_grad=True)
    w2 = Tensor(rng.normal(0, 0.5, (5, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 4)))
    t = rng.integers(0, 3, 4)

    def fwd():
        h = nm.gelu(nm.matmul(x, w1, b1))
        return nm.cross_entropy(nm.matmul(h, w2), t)

    return [w1, b1, w2], fwd


def _net_attention(rng, head):
    table = Tensor(rng.normal(0, 0.5, (7, 6)), requires_grad=True)
    gain = Tensor(rng.normal(1, 0.1, (6,)), requires_grad=True)
    bias = Tensor(rng.normal(0, 0.1, (6,)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.5, (6, 4)), requires_grad=True)
    ids = rng.integers(0, 7, 5)
    t = rng.integers(0, 4, 5)
    mask = np.where(np.tril(np.ones((5, 5))) > 0, 0.0, -np.inf)

    def fwd():
        x = nm.layer_norm(nm.embedding(table, ids), gain, bias)
        att = nm.softmax_rows(nm.matmul(x, nm.transpose(x, (1, 0))), 0.5, mask)
        return nm.cross_entropy(nm.matmul(nm.matmul(att, x), w), t)

    return [table, gain, bias, w], fwd


def _net_padded_batch(rng, head):
    a = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.5, (4, 4)), requires_grad=True)
    mask = np.where(np.tril(np.ones((3, 3))) > 0, 0.0, -np.inf)  # one per batch entry
    coeff = rng.normal(size=(2, 3))

    def fwd():
        drop = np.random.default_rng(1234)
        x = nm.reshape(nm.pad_stack([a, b]), (6, 4))
        x = nm.reshape(nm.dropout(nm.matmul(x, w), 0.2, drop), (2, 3, 4))
        y = nm.softmax_rows(nm.matmul(x, nm.transpose(x, (0, 2, 1))), 1.0, mask)
        return head(nm.sum_axis(y, 1), coeff)

    return [a, b, w], fwd


def _net_shapes(rng, head):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(4,)), requires_grad=True)
    coeff = rng.normal(size=(3, 8))

    def fwd():
        y = nm.add(nm.matmul(a, b, c), a)
        y = nm.concat([y, nm.add(y, y)])
        y = nm.narrow(y, 0, 1, 4)
        y = nm.reshape(nm.transpose(y, (1, 0)), (2, 8))
        y = nm.gather_rows(y, [0, 1, 1])
        return head(nm.gelu(y), coeff)

    return [a, b, c], fwd


def _net_deep_mix(rng, head):
    table = Tensor(rng.normal(0, 0.5, (6, 4)), requires_grad=True)
    gain = Tensor(np.ones(4), requires_grad=True)
    bias = Tensor(np.zeros(4), requires_grad=True)
    w = Tensor(rng.normal(0, 0.5, (4, 6)), requires_grad=True)
    ids = rng.integers(0, 6, 6)
    t = rng.integers(0, 6, 3)

    def fwd():
        drop = np.random.default_rng(77)
        x = nm.embedding(table, ids)
        x = nm.add(x, nm.gelu(x))
        x = nm.layer_norm(x, gain, bias)
        x = nm.dropout(x, 0.15, drop)
        x = nm.gather_rows(x, [0, 2, 4])
        p = nm.softmax_rows(x, 2.0, 0.0)
        return nm.cross_entropy(nm.matmul(p, w), t)

    return [table, gain, bias, w], fwd


def _net_packed_rows(rng, head):
    # the packed trunk's ops: a row layout's matmul and dropout over the
    # real rows, padded for a stacked product under the padding's key mask
    # and packed again
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.5, (4, 4)), requires_grad=True)
    c = Tensor(rng.normal(0, 0.2, (4,)), requires_grad=True)
    layout = (np.array([0, 1, 2, 3, 5]), 6)  # two items of 3 and 2 rows, padded to 3
    mask = md._attention_mask([3, 2], 3, 3, False)[:, 0]  # (2, 1, 3)
    coeff = rng.normal(size=(5, 4))

    def fwd():
        drop = np.random.default_rng(4321)
        y = nm.dropout(nm.matmul(x, w, c, layout), 0.2, drop, layout)
        p = nm.reshape(nm.pad_rows(y, layout), (2, 3, 4))
        att = nm.softmax_rows(nm.matmul(p, nm.transpose(p, (0, 2, 1))), 0.5, mask)
        y = nm.unpad_rows(nm.reshape(nm.matmul(att, p), (6, 4)), layout)
        return head(y, coeff)

    return [x, w, c], fwd


def test_criterion_1_gradient_correctness(linear_head):
    t0 = time.perf_counter()
    # a builder that ends in cross_entropy has its scalar and leaves the head unused
    builders = [_net_mlp, _net_attention, _net_padded_batch, _net_shapes, _net_deep_mix, _net_packed_rows]
    worst = 0.0
    count = 0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        params, fwd = builders[i % len(builders)](rng, linear_head)
        assert sum(p.data.size for p in params) <= 10**4
        with Tape() as tape:
            loss = fwd()
        backward(loss, tape)
        for p in params:
            fd = _fd_grad(lambda: fwd().item(), p)
            worst = max(worst, _rel_err(p.grad, fd))
        count += 1
    elapsed = time.perf_counter() - t0
    gate(1, worst < 1e-4 and count == 20 and elapsed < 60,
         f"20 networks, max relative error {worst:.2e} (tol 1e-4), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence
# ---------------------------------------------------------------------------


def _recursive_distance(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return _recursive_distance(a[1:], b[1:])
    return 1 + min(
        _recursive_distance(a[1:], b),
        _recursive_distance(a, b[1:]),
        _recursive_distance(a[1:], b[1:]),
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    lev_ok = True
    for _ in range(500):
        a = list(rng.integers(0, 5, size=rng.integers(0, 9)))
        b = list(rng.integers(0, 5, size=rng.integers(0, 9)))
        if ev.levenshtein(a, b).distance != _recursive_distance(a, b):
            lev_ok = False
            break

    book = qz.Codebook(centroids=rng.normal(size=(24, 6)))
    vectors = rng.normal(size=(1000, 6))
    assign = qz.kmeans_assign(vectors, book)
    assign_ok = True
    for i in range(1000):
        best, best_d = -1, np.inf
        for c in range(24):
            d = float(((vectors[i] - book.centroids[c]) ** 2).sum())
            if d < best_d:
                best, best_d = c, d
        if assign[i] != best:
            assign_ok = False
            break

    rvq = qz.rvq_fit(rng.normal(size=(400, 6)), layers=4, k=8, seed=2)
    frames = rng.normal(size=(1000, 6))
    codes = qz.rvq_encode(frames, rvq)
    rvq_ok = True
    residual = frames.copy()
    for j in range(4):
        cents = rvq.layers[j].centroids
        for i in range(1000):
            best, best_d = -1, np.inf
            for c in range(cents.shape[0]):
                d = float(((residual[i] - cents[c]) ** 2).sum())
                if d < best_d:
                    best, best_d = c, d
            if codes[i, j] != best:
                rvq_ok = False
        residual -= cents[codes[:, j]]
    elapsed = time.perf_counter() - t0
    gate(2, lev_ok and assign_ok and rvq_ok and elapsed < 60,
         f"levenshtein exact on 500 pairs: {lev_ok}; kmeans_assign exact on 1000: {assign_ok}; "
         f"rvq_encode exact on 1000: {rvq_ok}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: quantizer laws
# ---------------------------------------------------------------------------


def test_criterion_3_quantizer_laws():
    t0 = time.perf_counter()
    lloyd_ok = True
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        pts = rng.normal(size=(rng.integers(150, 400), rng.integers(3, 9)))
        pts *= rng.uniform(0.5, 3.0)
        book = qz.kmeans_fit(pts, k=int(rng.integers(4, 17)), max_iters=40, seed=trial)
        h = book.distortion_history
        if not all(b <= a + 1e-12 for a, b in zip(h, h[1:])):
            lloyd_ok = False

    spec = tw.WorldSpec(seed=WORLD_SEED)
    rng = np.random.default_rng(3)
    frames = np.concatenate([
        tw.sample_utterance(spec, int(rng.integers(8)), tw.CLEAN, rng).acoustic_frames
        for _ in range(60)
    ])
    rvq = qz.rvq_fit(frames, layers=8, k=32, seed=3)
    energies = rvq.residual_energy
    rvq_ok = len(energies) == 8 and all(
        b <= a + 1e-12 for a, b in zip(energies, energies[1:])
    )
    elapsed = time.perf_counter() - t0
    gate(3, lloyd_ok and rvq_ok and elapsed < 60,
         f"Lloyd monotone on 10 datasets: {lloyd_ok}; RVQ residual energy non-increasing "
         f"over 8 layers: {rvq_ok} ({['%.4f' % e for e in energies]}); {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: upsampler law
# ---------------------------------------------------------------------------


def test_criterion_4_upsampler_law():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 1001):
        seq = np.arange(n) * 3 + 1
        out = qz.upsample_tokens(seq)
        if out.size != math.ceil(3 * n / 2):
            ok = False
            break
        want = seq[(2 * np.arange(out.size)) // 3] if n else seq
        if not np.array_equal(out, want):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    gate(4, ok and elapsed < 1.0,
         f"lengths 0..1000: output length == ceil(3L/2) and output[t] == input[2t//3]; "
         f"{elapsed * 1000:.0f}ms")
