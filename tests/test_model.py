import numpy as np
import pytest

from phonolm import checkpoint
from phonolm import model as md
from phonolm import numerics as nm
from phonolm.numerics import ContractError, Tape, backward


def tiny_config(**kw):
    base = dict(n_layers=2, n_heads=2, d_model=32, d_ff=64, dropout=0.0,
                phoneme_vocab=10, phonetic_vocab=12, codec_vocab=6,
                n_codec_layers=4, max_sequence_len=64)
    base.update(kw)
    return md.ModelConfig(**base)


def test_config_head_divisibility():
    with pytest.raises(ContractError):
        md.ModelConfig(n_heads=3, d_model=128)


def test_parameter_count_pure_function_of_config():
    cfg = tiny_config()
    a = md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=1)
    b = md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=2)
    assert a.parameter_count() == b.parameter_count()
    assert list(a.params) == list(b.params)
    n1 = md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=1)
    n2 = md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=9)
    assert n1.parameter_count() == n2.parameter_count()


def test_paper_scale_config_constructible():
    cfg = md.paper_scale_config(phoneme_vocab=64, phonetic_vocab=1024, codec_vocab=1024)
    assert cfg.n_layers == 12 and cfg.n_heads == 16
    assert cfg.d_model == 1024 and cfg.d_ff == 4096
    # constructible without training it
    m = md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=0)
    assert m.parameter_count() > 10**8 // 2


def test_ar_empty_prefix_gives_single_logit_row():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=0)
    logits = md.ar_forward(m, [1, 2, 3], [4, 5], [])
    assert logits.shape == (1, m.output_vocab)


def test_ar_logit_rows_cover_targets_plus_stop():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=0)
    logits = md.ar_forward(m, [1, 2], [4], [7, 8, 9])
    assert logits.shape == (4, m.output_vocab)


def test_ar_position_embeddings_active():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=0)
    a = md.ar_forward(m, [1, 2], [3], [5, 6]).data
    b = md.ar_forward(m, [1, 2], [3], [6, 5]).data
    assert np.abs(a - b).max() > 1e-8


def test_ar_causality_exact():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=3)
    base = md.ar_forward(m, [1, 2, 3], [4, 5], [6, 7, 8, 9]).data
    for t in range(4):
        prefix = [6, 7, 8, 9]
        prefix[t] = (prefix[t] + 1) % 12
        pert = md.ar_forward(m, [1, 2, 3], [4, 5], prefix).data
        # rows <= t predict tokens at positions <= t: unchanged bit-for-bit
        np.testing.assert_array_equal(base[: t + 1], pert[: t + 1])
        assert np.abs(base[t + 1 :] - pert[t + 1 :]).max() > 0


def test_ar_batched_matches_single():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=4)
    items = [
        ([1, 2, 3], np.array([4, 5]), np.array([6, 7])),
        ([9, 8], np.array([1]), np.array([2, 3, 4, 5])),
        ([0], np.array([], dtype=np.int64), np.array([11])),
    ]
    # padded batching reorders BLAS blocking, so equality with the
    # single-sequence path is within an ulp, not bitwise; each path on its
    # own is exactly reproducible
    batched, targets = md.ar_batch_logits(m, items)
    again, _ = md.ar_batch_logits(m, items)
    np.testing.assert_array_equal(batched.data, again.data)
    offset = 0
    for ph, pr, tg in items:
        single = md.ar_forward(m, ph, pr, tg)
        rows = len(tg) + 1
        np.testing.assert_allclose(
            batched.data[offset : offset + rows], single.data, rtol=1e-12, atol=1e-14
        )
        np.testing.assert_array_equal(
            targets[offset : offset + rows], np.concatenate([tg, [m.stop_id]])
        )
        offset += rows


def test_ar_sequence_length_guard():
    m = md.build_ar_model(tiny_config(max_sequence_len=8), md.STREAM_PHONETIC, seed=0)
    with pytest.raises(md.SequenceLengthError):
        md.ar_forward(m, [1, 2, 3, 4], [5, 6], [7, 8, 9])


def test_ar_loss_consistency_and_perplexity():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=5)
    items = [([1, 2], np.array([3]), np.array([4, 5, 6]))]
    logits, targets = md.ar_batch_logits(m, items)
    loss = nm.cross_entropy(logits, targets).item()
    # definitionally the mean of -log p(token | context)
    p = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = p - np.log(np.exp(p).sum(axis=1, keepdims=True))
    want = -logp[np.arange(len(targets)), targets].mean()
    assert abs(loss - want) < 1e-12
    assert np.exp(loss) >= 1.0


def test_nar_layer1_takes_no_below_codes():
    cfg = tiny_config()
    m = md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=0)
    prompt = np.zeros((3, 4), dtype=np.int64)
    logits = md.nar_forward(m, [1, 2], np.array([3, 4, 5]), prompt,
                            np.zeros((3, 0), dtype=np.int64), 1)
    assert logits.shape == (3, cfg.codec_vocab)


def test_nar_frame_count_mismatch_rejected():
    m = md.build_nar_model(tiny_config(), md.VARIANT_PROPOSED, seed=0)
    prompt = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ContractError):
        md.nar_forward(m, [1], np.array([3, 4]), prompt, np.zeros((3, 0), dtype=np.int64), 1)


def test_nar_layer_index_range():
    m = md.build_nar_model(tiny_config(), md.VARIANT_PROPOSED, seed=0)
    prompt = np.zeros((2, 4), dtype=np.int64)
    below = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ContractError):
        md.nar_forward(m, [1], np.array([3, 4]), prompt, below, 5)
    with pytest.raises(ContractError):
        md.nar_forward(m, [1], np.array([3, 4]), prompt, np.zeros((2, 0), dtype=np.int64), 0)


def test_nar_baseline_variant_predicts_layers_2_up():
    m = md.build_nar_model(tiny_config(), md.VARIANT_BASELINE, seed=0)
    prompt = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ContractError):
        md.nar_forward(m, [1], None, prompt, np.zeros((2, 0), dtype=np.int64), 1)
    logits = md.nar_forward(m, [1], None, prompt, np.zeros((2, 1), dtype=np.int64), 2)
    assert logits.shape == (2, 6)
    with pytest.raises(ContractError):  # baseline takes no phonetic conditioning
        md.nar_forward(m, [1], np.array([1, 2]), prompt, np.zeros((2, 1), dtype=np.int64), 2)


def test_nar_attention_is_noncausal():
    m = md.build_nar_model(tiny_config(), md.VARIANT_PROPOSED, seed=6)
    prompt = np.ones((2, 4), dtype=np.int64)
    cond = np.array([1, 2, 3, 4])
    below = np.zeros((4, 1), dtype=np.int64)
    base = md.nar_forward(m, [1, 2], cond, prompt, below, 2).data
    pert_below = below.copy()
    pert_below[1, 0] = 3  # perturb frame t+1
    pert = md.nar_forward(m, [1, 2], cond, prompt, pert_below, 2).data
    assert np.abs(pert[0] - base[0]).max() > 0  # frame t sees the future


def test_nar_batched_matches_single():
    m = md.build_nar_model(tiny_config(), md.VARIANT_PROPOSED, seed=7)
    rng = np.random.default_rng(0)
    items = []
    for n_ph, n_prompt, n_t, j in [(2, 3, 4, 1), (3, 2, 2, 3), (1, 4, 5, 2)]:
        items.append((
            list(rng.integers(0, 10, n_ph)),
            rng.integers(0, 12, n_t),
            rng.integers(0, 6, (n_prompt, 4)),
            rng.integers(0, 6, (n_t, j - 1)),
            j,
        ))
    batched = md.nar_batch_logits(m, items)
    offset = 0
    for ph, cond, prompt, below, j in items:
        single = md.nar_forward(m, ph, cond, prompt, below, j)
        n = below.shape[0]
        np.testing.assert_allclose(
            batched.data[offset : offset + n], single.data, rtol=1e-12, atol=1e-14
        )
        offset += n


def test_checkpoint_round_trip_bit_identical_logits(tmp_path):
    cfg = tiny_config()
    m = md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=8)
    path = tmp_path / "ar.ckpt"
    m.save(path)
    loaded = md.load_model(path)
    assert loaded.kind == md.AR and loaded.role == md.STREAM_PHONETIC
    a = md.ar_forward(m, [1, 2, 3], [4], [5, 6]).data
    b = md.ar_forward(loaded, [1, 2, 3], [4], [5, 6]).data
    np.testing.assert_array_equal(a, b)

    n = md.build_nar_model(cfg, md.VARIANT_BASELINE, seed=9)
    npath = tmp_path / "nar.ckpt"
    n.save(npath)
    nl = md.load_model(npath)
    prompt = np.ones((2, 4), dtype=np.int64)
    x = md.nar_forward(n, [1], None, prompt, np.zeros((2, 1), dtype=np.int64), 2).data
    y = md.nar_forward(nl, [1], None, prompt, np.zeros((2, 1), dtype=np.int64), 2).data
    np.testing.assert_array_equal(x, y)


def test_load_model_draws_no_random_init(tmp_path, monkeypatch):
    m = md.build_nar_model(tiny_config(), md.VARIANT_PROPOSED, seed=3)
    m.save(tmp_path / "nar.ckpt")

    def no_init(*a, **k):
        raise AssertionError("load_model drew a random init")

    monkeypatch.setattr(md, "_init_params", no_init)
    loaded = md.load_model(tmp_path / "nar.ckpt")
    assert list(loaded.params) == list(m.params)
    for name, p in m.params.items():
        assert loaded.params[name].requires_grad
        np.testing.assert_array_equal(loaded.params[name].data, p.data)


@pytest.mark.parametrize("damage", ["missing", "extra", "shape"])
def test_load_model_rejects_mismatched_tensors(tmp_path, damage):
    m = md.build_ar_model(tiny_config(), md.STREAM_CODEC, seed=4)
    m.save(tmp_path / "ar.ckpt")
    tensors = checkpoint.load_tensors(tmp_path / "ar.ckpt")
    if damage == "missing":
        del tensors["blocks/1/ffn/w2"]
    elif damage == "extra":
        tensors["blocks/9/ffn/w2"] = np.zeros((2, 2))
    else:
        tensors["head/w"] = tensors["head/w"][:, :-1]
    checkpoint.save_tensors(tmp_path / "ar.ckpt", tensors)
    with pytest.raises(checkpoint.CheckpointError):
        md.load_model(tmp_path / "ar.ckpt")


def test_sample_next_topk1_is_argmax():
    rng = np.random.default_rng(0)
    row = np.array([0.1, 3.0, -1.0, 2.9])
    for _ in range(5):
        assert md.ar_sample_next(row, temperature=1.0, top_k=1, rng=rng) == 1


def test_sample_next_uniform_statistics():
    rng = np.random.default_rng(1)
    row = np.zeros(5)
    counts = np.zeros(5)
    n = 100_000
    for _ in range(n):
        counts[md.ar_sample_next(row, 1.0, 5, rng)] += 1
    p = 1 / 5
    sigma = np.sqrt(n * p * (1 - p))
    assert np.abs(counts - n * p).max() < 3 * sigma


def test_sample_next_low_temperature_concentrates():
    rng = np.random.default_rng(2)
    row = np.array([1.0, 1.2, 0.8])
    hits = sum(md.ar_sample_next(row, 1e-6, 3, rng) == 1 for _ in range(200))
    assert hits == 200


def test_sample_next_validates_args():
    rng = np.random.default_rng(3)
    with pytest.raises(ContractError):
        md.ar_sample_next(np.zeros(3), 0.0, 1, rng)
    with pytest.raises(ContractError):
        md.ar_sample_next(np.zeros(3), 1.0, 0, rng)


def test_training_grads_flow_everywhere():
    m = md.build_ar_model(tiny_config(dropout=0.1), md.STREAM_PHONETIC, seed=10)
    rng = np.random.default_rng(4)
    items = [([1, 2], np.array([3]), np.array([4, 5]))]
    with Tape() as tape:
        logits, targets = md.ar_batch_logits(m, items, train=True, rng=rng)
        loss = nm.cross_entropy(logits, targets)
    backward(loss, tape)
    touched = sum(p.grad is not None and np.any(p.grad != 0) for p in m.parameters())
    assert touched > len(m.parameters()) * 0.9


def test_attention_mask_matches_per_item_loop():
    lengths = [5, 2, 7, 1]
    T = 7
    for causal in (False, True):
        want = np.zeros((len(lengths), 1, T, T))
        cols = np.arange(T)
        for b, n in enumerate(lengths):
            allowed = np.broadcast_to(cols[None, :] < n, (T, T))
            if causal:
                allowed = allowed & (cols[None, :] <= cols[:, None])
            want[b, 0][~allowed] = -np.inf
        got = md._attention_mask(lengths, T, T, causal).data
        np.testing.assert_array_equal(np.broadcast_to(got, want.shape), want)


def test_nar_batch_embedding_grads_match_finite_differences():
    # emb/sep enters one concat once per item, next to the emb/pos sum
    cfg = md.ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, dropout=0.0,
                         phoneme_vocab=6, phonetic_vocab=5, codec_vocab=4,
                         n_codec_layers=3, max_sequence_len=16)
    m = md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=4)
    for p in m.parameters():  # larger weights, so every gradient is well above noise
        p.data *= 10.0
    rng = np.random.default_rng(1)
    items = [
        ([1, 2, 3], [0, 1, 2, 3], rng.integers(0, 4, (2, 3)), rng.integers(0, 4, (4, 1)), 2),
        ([5, 0], [4, 4, 1], rng.integers(0, 4, (3, 3)), rng.integers(0, 4, (3, 2)), 3),
    ]
    labels = rng.integers(0, 4, 7)

    def loss():
        return nm.cross_entropy(md.nar_batch_logits(m, items), labels)

    with Tape() as tape:
        out = loss()
    backward(out, tape)
    h = 1e-5
    for name in ("emb/pos", "emb/sep", "emb/phoneme"):
        param = m.params[name]
        fd = np.zeros_like(param.data)
        flat = param.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss().item()
            flat[i] = orig - h
            down = loss().item()
            flat[i] = orig
            fd.reshape(-1)[i] = (up - down) / (2 * h)
        scale = np.abs(fd).max()
        assert scale > 1e-3, name
        assert np.abs(param.grad - fd).max() <= 1e-6 * scale, name


def _ragged_decode_case():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=6)
    rng = np.random.default_rng(2)
    items = [
        (rng.integers(0, 10, n_ph), rng.integers(0, 12, n_pr))
        for n_ph, n_pr in ((3, 2), (1, 0), (5, 4), (2, 6), (4, 1))
    ]
    steps = [4, 1, 6, 2, 6]  # tokens fed per entry; entries leave at different steps
    tokens = [rng.integers(0, 12, n) for n in steps]
    return m, items, steps, tokens


def test_cached_steps_match_full_recompute():
    m, items, steps, tokens = _ragged_decode_case()
    capacity = max(len(ph) + 1 + len(pr) + n for (ph, pr), n in zip(items, steps))
    logits, cache = md.ar_prefill(m, items, capacity)
    full, _ = md.ar_batch_logits(m, [(ph, pr, []) for ph, pr in items])
    np.testing.assert_array_equal(logits.data, full.data)  # the prefill is that very pass
    active, fed, worst = list(range(len(items))), 0, 0.0
    while True:
        live = [i for i, b in enumerate(active) if steps[b] > fed]
        if not live:
            break
        if len(live) < len(active):
            cache.keep(live)
            active = [active[i] for i in live]
        logits = md.ar_step(m, cache, [tokens[b][fed] for b in active])
        fed += 1
        full, _ = md.ar_batch_logits(m, [(*items[b], tokens[b][:fed]) for b in active])
        last = np.cumsum([fed + 1] * len(active)) - 1
        worst = max(worst, np.abs(logits.data - full.data[last]).max())
    assert fed == max(steps)
    assert worst <= 1e-12


def test_cached_step_length_guard():
    m = md.build_ar_model(tiny_config(max_sequence_len=8), md.STREAM_PHONETIC, seed=0)
    _, cache = md.ar_prefill(m, [([1, 2, 3], [4, 5, 6]), ([1], [2])], capacity=9)
    md.ar_step(m, cache, [7, 7])  # the first entry now fills all 8 positions
    with pytest.raises(md.SequenceLengthError):
        md.ar_step(m, cache, [7, 7])


def test_cache_filled_only_by_inference_forward():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=0)
    items = [([1, 2], [3], [4])]
    with pytest.raises(ContractError):
        md.ar_batch_logits(m, items, train=True, rng=np.random.default_rng(0), cache=md.KVCache(m, 1, 8))
    with pytest.raises(ContractError):
        md.ar_batch_logits(m, items, cache=md.KVCache(m, 2, 8))
