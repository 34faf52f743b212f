import re

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


@pytest.mark.parametrize("dropout, named", [
    (1.0, "must be in [0, 1)"), (True, "must be a finite real >= 0"), (-0.1, "must be a finite real >= 0"),
    (float("nan"), "must be a finite real >= 0"), (float("inf"), "must be a finite real >= 0"),
    ("x", "must be a finite real >= 0"),  # a string once failed the comparison with a TypeError
])
def test_config_rejects_a_dropout_outside_zero_to_one(dropout, named):
    with pytest.raises(ContractError, match=re.escape(f"ModelConfig.dropout {named}")):
        tiny_config(dropout=dropout)


def test_parameter_count_pure_function_of_config():
    cfg = tiny_config()
    a = md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=1)
    b = md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=2)
    assert sum(p.data.size for p in a.parameters()) == sum(p.data.size for p in b.parameters())
    assert list(a.params) == list(b.params)
    n1 = md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=1)
    n2 = md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=9)
    assert sum(p.data.size for p in n1.parameters()) == sum(p.data.size for p in n2.parameters())


def test_ar_empty_prefix_gives_single_logit_row():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=0)
    logits = md.ar_batch_logits(m, [([1, 2, 3], [4, 5], [])])[0]
    assert logits.shape == (1, m.output_vocab)


def test_ar_logit_rows_cover_targets_plus_stop():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=0)
    logits = md.ar_batch_logits(m, [([1, 2], [4], [7, 8, 9])])[0]
    assert logits.shape == (4, m.output_vocab)


def test_ar_position_embeddings_active():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=0)
    a = md.ar_batch_logits(m, [([1, 2], [3], [5, 6])])[0].data
    b = md.ar_batch_logits(m, [([1, 2], [3], [6, 5])])[0].data
    assert np.abs(a - b).max() > 1e-8


def test_ar_causality_exact():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=3)
    base = md.ar_batch_logits(m, [([1, 2, 3], [4, 5], [6, 7, 8, 9])])[0].data
    for t in range(4):
        prefix = [6, 7, 8, 9]
        prefix[t] = (prefix[t] + 1) % 12
        pert = md.ar_batch_logits(m, [([1, 2, 3], [4, 5], prefix)])[0].data
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
        single = md.ar_batch_logits(m, [(ph, pr, tg)])[0]
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
        md.ar_batch_logits(m, [([1, 2, 3, 4], [5, 6], [7, 8, 9])])[0]


def test_ar_rejects_ids_outside_their_table():
    # phonemes and tokens share one stacked table, so an id past either
    # table's end would otherwise read a row of the other
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=0)
    for item in (([10], [1], [2]), ([-1], [1], [2]), ([1], [-1], [2]), ([1], [1], [-1]), ([1], [1], [14])):
        with pytest.raises(IndexError):
            md.ar_batch_logits(m, [([1], [2], [3]), item])


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
    logits = md.nar_batch_logits(m, [([1, 2], np.array([3, 4, 5]), prompt,
                                      np.zeros((3, 0), dtype=np.int64), 1)])
    assert logits.shape == (3, cfg.codec_vocab)


def test_nar_frame_count_mismatch_rejected():
    m = md.build_nar_model(tiny_config(), md.VARIANT_PROPOSED, seed=0)
    prompt = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ContractError):
        md.nar_batch_logits(m, [([1], np.array([3, 4]), prompt, np.zeros((3, 0), dtype=np.int64), 1)])


def test_nar_layer_index_range():
    m = md.build_nar_model(tiny_config(), md.VARIANT_PROPOSED, seed=0)
    prompt = np.zeros((2, 4), dtype=np.int64)
    below = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ContractError):
        md.nar_batch_logits(m, [([1], np.array([3, 4]), prompt, below, 5)])
    with pytest.raises(ContractError):
        md.nar_batch_logits(m, [([1], np.array([3, 4]), prompt, np.zeros((2, 0), dtype=np.int64), 0)])


@pytest.mark.parametrize("prompt, below, named", [
    ([[4, 0, 0]], [[0]], "prompt codec id out of range [0, 4) at layer 1"),  # would read layer 2's id 0
    ([[0, 0, 0]], [[4]], "below-layer codec id out of range [0, 4) at layer 1"),
    ([[0, -1, 0]], [[0]], "prompt codec id out of range [0, 4) at layer 2"),  # would read layer 1's id 3
    ([[0, 0, 0]], [[0, -1]], "below-layer codec id out of range [0, 4) at layer 2"),
], ids=["prompt_past_end", "below_past_end", "prompt_negative", "below_negative"])
def test_nar_rejects_codec_ids_outside_their_layer(prompt, below, named):
    # the codec tables of all layers are one stacked table, looked up with per-layer offsets
    m = md.build_nar_model(tiny_config(codec_vocab=4, n_codec_layers=3), md.VARIANT_BASELINE, seed=0)
    below = np.array(below, dtype=np.int64)
    item = ([1], None, np.array(prompt, dtype=np.int64), below, below.shape[1] + 1)
    with pytest.raises(IndexError) as exc:
        md.nar_batch_logits(m, [([1], None, np.zeros((1, 3), dtype=np.int64), np.zeros((1, 1), dtype=np.int64), 2), item])
    assert named in str(exc.value)


def test_nar_baseline_variant_predicts_layers_2_up():
    m = md.build_nar_model(tiny_config(), md.VARIANT_BASELINE, seed=0)
    prompt = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ContractError):
        md.nar_batch_logits(m, [([1], None, prompt, np.zeros((2, 0), dtype=np.int64), 1)])
    logits = md.nar_batch_logits(m, [([1], None, prompt, np.zeros((2, 1), dtype=np.int64), 2)])
    assert logits.shape == (2, 6)
    with pytest.raises(ContractError):  # baseline takes no phonetic conditioning
        md.nar_batch_logits(m, [([1], np.array([1, 2]), prompt, np.zeros((2, 1), dtype=np.int64), 2)])


def test_nar_attention_is_noncausal():
    m = md.build_nar_model(tiny_config(), md.VARIANT_PROPOSED, seed=6)
    prompt = np.ones((2, 4), dtype=np.int64)
    cond = np.array([1, 2, 3, 4])
    below = np.zeros((4, 1), dtype=np.int64)
    base = md.nar_batch_logits(m, [([1, 2], cond, prompt, below, 2)]).data
    pert_below = below.copy()
    pert_below[1, 0] = 3  # perturb frame t+1
    pert = md.nar_batch_logits(m, [([1, 2], cond, prompt, pert_below, 2)]).data
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
        single = md.nar_batch_logits(m, [(ph, cond, prompt, below, j)])
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
    a = md.ar_batch_logits(m, [([1, 2, 3], [4], [5, 6])])[0].data
    b = md.ar_batch_logits(loaded, [([1, 2, 3], [4], [5, 6])])[0].data
    np.testing.assert_array_equal(a, b)

    n = md.build_nar_model(cfg, md.VARIANT_BASELINE, seed=9)
    npath = tmp_path / "nar.ckpt"
    n.save(npath)
    nl = md.load_model(npath)
    prompt = np.ones((2, 4), dtype=np.int64)
    x = md.nar_batch_logits(n, [([1], None, prompt, np.zeros((2, 1), dtype=np.int64), 2)]).data
    y = md.nar_batch_logits(nl, [([1], None, prompt, np.zeros((2, 1), dtype=np.int64), 2)]).data
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


def test_a_baseline_nar_needs_two_codec_layers(tmp_path):
    # it predicts layers 2..L, so a 1-layer codec leaves it nothing to predict
    with pytest.raises(ContractError, match="n_codec_layers >= 2, got 1"):
        md.build_nar_model(tiny_config(n_codec_layers=1), md.VARIANT_BASELINE, seed=0)
    md.build_nar_model(tiny_config(n_codec_layers=1), md.VARIANT_PROPOSED, seed=0).save(tmp_path / "nar.ckpt")
    sidecar = tmp_path / "nar.json"
    sidecar.write_text(sidecar.read_text().replace(f'"{md.VARIANT_PROPOSED}"', f'"{md.VARIANT_BASELINE}"'))
    with pytest.raises(checkpoint.CheckpointError, match="n_codec_layers >= 2, got 1"):
        md.load_model(tmp_path / "nar.ckpt")


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


@pytest.mark.parametrize("temperature", [np.nan, np.inf, -np.inf])
def test_sample_next_rejects_a_non_finite_temperature(temperature):
    # NaN once made every probability NaN, and each draw silently took the top candidate
    rng = np.random.default_rng(3)
    with pytest.raises(ContractError, match="temperature must be a finite number > 0"):
        md.ar_sample_next(np.array([0.0, 1.0, 2.0]), temperature, 3, rng)


def test_training_grads_flow_everywhere():
    m = md.build_ar_model(tiny_config(dropout=0.1), md.STREAM_PHONETIC, seed=10)
    rng = np.random.default_rng(4)
    items = [([1, 2], np.array([3]), np.array([4, 5]))]
    with Tape() as tape:
        logits, targets = md.ar_batch_logits(m, items, rng=rng)
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
        got = md._attention_mask(lengths, T, T, causal)
        np.testing.assert_array_equal(np.broadcast_to(got, want.shape), want)


def _embedding_grads_match_finite_differences(m, loss, names):
    with Tape() as tape:
        out = loss()
    backward(out, tape)
    h = 1e-5
    for name in names:
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


def _gradcheck_config():
    return md.ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, dropout=0.0,
                          phoneme_vocab=6, phonetic_vocab=5, codec_vocab=4,
                          n_codec_layers=3, max_sequence_len=16)


def test_nar_batch_embedding_grads_match_finite_differences():
    # every item looks up the one emb/sep row, and the batch's single gather orders them;
    # the layer-1 item's below-codes are all padding ids of the zero row
    m = md.build_nar_model(_gradcheck_config(), md.VARIANT_PROPOSED, seed=4)
    for p in m.parameters():  # larger weights, so every gradient is well above noise
        p.data *= 10.0
    rng = np.random.default_rng(1)
    items = [
        ([1, 2, 3], [0, 1, 2, 3], rng.integers(0, 4, (2, 3)), rng.integers(0, 4, (4, 1)), 2),
        ([5, 0], [4, 4, 1], rng.integers(0, 4, (3, 3)), rng.integers(0, 4, (3, 2)), 3),
        ([4], [2, 3], rng.integers(0, 4, (1, 3)), np.zeros((2, 0), dtype=np.int64), 1),
    ]
    labels = rng.integers(0, 4, 9)

    def loss():
        return nm.cross_entropy(md.nar_batch_logits(m, items), labels)

    _embedding_grads_match_finite_differences(
        m, loss, ("emb/pos", "emb/sep", "emb/phoneme", "emb/codec", "emb/layer", "emb/cond"))


def test_ar_batch_embedding_grads_match_finite_differences():
    # phoneme and token rows come from one stacked table; positions repeat across items
    m = md.build_ar_model(_gradcheck_config(), md.STREAM_PHONETIC, seed=5)
    for p in m.parameters():
        p.data *= 10.0
    items = [([1, 2, 3], [0, 4], [2, 1, 3]), ([5], [], [4, 0]), ([0, 0], [3], [])]

    def loss():
        logits, targets = md.ar_batch_logits(m, items)
        return nm.cross_entropy(logits, targets)

    _embedding_grads_match_finite_differences(m, loss, ("emb/phoneme", "emb/token", "emb/pos"))


def test_batch_forwards_record_as_many_tape_records_for_one_item_as_for_five():
    cfg = _gradcheck_config()
    rng = np.random.default_rng(3)
    sizes = [(3, 2, 4, 2), (1, 0, 1, 1), (5, 4, 2, 3), (2, 6, 3, 1), (4, 1, 5, 2)]
    ar_items = [(rng.integers(0, 6, a), rng.integers(0, 5, b), rng.integers(0, 5, c)) for a, b, c, _ in sizes]
    nar_items = [(rng.integers(0, 6, a), rng.integers(0, 5, c), rng.integers(0, 4, (b, 3)),
                  rng.integers(0, 4, (c, j - 1)), j) for a, b, c, j in sizes]
    ar = md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=1)
    nar = md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=1)

    def records(forward, items):
        with Tape() as tape:
            forward(items)
        return len(tape)

    for forward, items in ((lambda it: md.ar_batch_logits(ar, it), ar_items),
                           (lambda it: md.nar_batch_logits(nar, it), nar_items)):
        assert records(forward, items[:1]) == records(forward, items)


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
    cache = md.KVCache(m, len(items), capacity)
    logits, _ = md.ar_batch_logits(m, [(ph, pr, []) for ph, pr in items], cache=cache)
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
    cache = md.KVCache(m, 2, 9)
    md.ar_batch_logits(m, [([1, 2, 3], [4, 5, 6], []), ([1], [2], [])], cache=cache)
    md.ar_step(m, cache, [7, 7])  # the first entry now fills all 8 positions
    with pytest.raises(md.SequenceLengthError):
        md.ar_step(m, cache, [7, 7])


def test_a_cached_step_past_the_caches_capacity_raises_before_it_writes():
    m = md.build_ar_model(tiny_config(max_sequence_len=16), md.STREAM_PHONETIC, seed=0)
    cache = md.KVCache(m, 1, 6)
    md.ar_batch_logits(m, [([1, 2], [3], [])], cache=cache)  # 4 rows: phonemes, SEP, prompt
    md.ar_step(m, cache, [5])
    md.ar_step(m, cache, [5])  # all 6 rows filled
    keys = [k.copy() for k in cache.keys]
    with pytest.raises(ContractError, match="capacity 6"):
        md.ar_step(m, cache, [5])
    np.testing.assert_array_equal(cache.lengths, [6])
    for k, before in zip(cache.keys, keys):
        np.testing.assert_array_equal(k, before)


@pytest.mark.parametrize("forward", ["ar", "nar", "cached_step"])
def test_sequences_of_exactly_max_sequence_len_pass_and_one_more_raises(forward):
    cfg = tiny_config(max_sequence_len=8)
    ar = md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=0)
    nar = md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=0)
    prompt = np.zeros((2, cfg.n_codec_layers), dtype=np.int64)
    cache = md.KVCache(ar, 2, 9)
    if forward == "cached_step":
        md.ar_batch_logits(ar, [([1, 2], [3, 4, 5], []), ([1], [2], [])], cache=cache)  # 6 and 3 positions
        md.ar_step(ar, cache, [6, 6])

    def run(n):  # a batch whose longer item ends at position n; a short item rides along
        if forward == "ar":
            return md.ar_batch_logits(ar, [([1, 2], [3], [4] * (n - 4)), ([1], [], [2])])
        if forward == "nar":
            below = np.zeros((n - 5, 1), dtype=np.int64)
            return md.nar_batch_logits(nar, [([1, 2], np.ones(n - 5, dtype=np.int64), prompt, below, 2),
                                             ([1], np.ones(1, dtype=np.int64), prompt[:1], below[:1], 2)])
        assert cache.lengths.max() == n - 1
        return md.ar_step(ar, cache, [6, 6])

    run(8)
    lengths, keys = cache.lengths.copy(), [k.copy() for k in cache.keys]
    with pytest.raises(md.SequenceLengthError):
        run(9)
    # the failing step wrote nothing into the cache
    np.testing.assert_array_equal(cache.lengths, lengths)
    for k, before in zip(cache.keys, keys):
        np.testing.assert_array_equal(k, before)


def test_cache_filled_only_by_inference_forward():
    m = md.build_ar_model(tiny_config(), md.STREAM_PHONETIC, seed=0)
    items = [([1, 2], [3], [4])]
    with pytest.raises(ContractError):
        md.ar_batch_logits(m, items, rng=np.random.default_rng(0), cache=md.KVCache(m, 1, 8))
    with pytest.raises(ContractError):
        md.ar_batch_logits(m, items, cache=md.KVCache(m, 2, 8))


@pytest.mark.parametrize("kind", [md.AR, md.NAR])
def test_forward_drops_out_iff_given_an_rng_and_its_head_reads_each_items_last_rows(kind, monkeypatch):
    model, items = _reference_case(kind)  # dropout 0.1
    still = md.DecoderModel(tiny_config(d_model=64, n_heads=2, d_ff=128), model.kind, model.role, model.params, None)

    def forward(m, rng=None):
        return md.ar_batch_logits(m, items, rng)[0].data if kind == md.AR else md.nar_batch_logits(m, items, rng).data

    plain = forward(model)
    _assert_same_bits(forward(still, np.random.default_rng(5)), plain, "an rng at dropout 0")
    _assert_same_bits(forward(still), plain, "a forward with dropout off")
    assert forward(model, np.random.default_rng(5)).tobytes() != plain.tobytes()

    trunk_out = []
    trunk = md._trunk_forward
    monkeypatch.setattr(md, "_trunk_forward", lambda *a, **kw: trunk_out.append(trunk(*a, **kw)) or trunk_out[-1])
    forward(model)
    if kind == md.AR:  # the target rows and the STOP slot
        lengths = [len(ph) + 1 + len(pr) + len(tg) for ph, pr, tg in items]
        heads = [len(tg) + 1 for _, _, tg in items]
    else:  # the target frames
        lengths = [len(ph) + 1 + len(pc) + len(tb) for ph, _, pc, tb, _ in items]
        heads = [len(tb) for _, _, _, tb, _ in items]
    ends = np.cumsum(lengths)
    last = np.concatenate([trunk_out[0].data[end - n : end] for end, n in zip(ends, heads)])
    np.testing.assert_allclose(plain, last @ model.params["head/w"].data, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the packed trunk against the padded one it replaced
# ---------------------------------------------------------------------------


def _padded_trunk_forward(model, x, batch, mask, rng, cache=None):
    """The trunk as it ran before it was packed: every op over the B·T rows
    of the (B, T) = `batch` padded batch. A reference only."""
    cfg = model.config
    p = model.params
    B, T = batch
    d, H = cfg.d_model, cfg.n_heads
    hd = d // H
    inv_sqrt = 1.0 / np.sqrt(hd)

    def drop(t):
        return t if rng is None else nm.dropout(t, cfg.dropout, rng)

    def split_heads(t):  # (B·T, d) rows -> (B, H, T, hd)
        return nm.transpose(nm.reshape(t, (B, T, H, hd)), (0, 2, 1, 3))

    for i in range(cfg.n_layers):
        b = f"blocks/{i}"
        h = nm.layer_norm(x, p[f"{b}/ln1/gain"], p[f"{b}/ln1/bias"])
        q = split_heads(nm.matmul(h, p[f"{b}/attn/wq"], p[f"{b}/attn/bq"]))
        k = split_heads(nm.matmul(h, p[f"{b}/attn/wk"], p[f"{b}/attn/bk"]))
        v = split_heads(nm.matmul(h, p[f"{b}/attn/wv"], p[f"{b}/attn/bv"]))
        if cache is not None:
            k, v = cache.write(i, k, v)
        att = drop(nm.softmax_rows(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))), inv_sqrt, mask))
        mix = nm.reshape(nm.transpose(nm.matmul(att, v), (0, 2, 1, 3)), (B * T, d))
        out = nm.matmul(mix, p[f"{b}/attn/wo"], p[f"{b}/attn/bo"])
        x = nm.add(x, drop(out))
        h2 = nm.layer_norm(x, p[f"{b}/ln2/gain"], p[f"{b}/ln2/bias"])
        f = nm.gelu(nm.matmul(h2, p[f"{b}/ffn/w1"], p[f"{b}/ffn/b1"]))
        f = nm.matmul(f, p[f"{b}/ffn/w2"], p[f"{b}/ffn/b2"])
        x = nm.add(x, drop(f))
    return nm.layer_norm(x, p["final_ln/gain"], p["final_ln/bias"])


def _padded_run_batch(model, x, lengths, heads, rng=None, cache=None):
    """`md._run_batch` as it ran before the trunk was packed: one gather pads
    the items into the B·T rows of a (B, T) batch, padding slots reading an
    appended zero row. A reference only."""
    cfg = model.config
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.zeros_like(lengths) if cache is None else cache.lengths
    ends = starts + lengths
    B, T = len(lengths), int(lengths.max())
    pos = np.arange(T)
    real = pos < lengths[:, None]
    x = nm.add(x, nm.embedding(model.params["emb/pos"], (starts[:, None] + pos)[real]))
    slots = np.where(real, np.cumsum(lengths)[:, None] - lengths[:, None] + pos, x.shape[0])
    x = nm.gather_rows(nm.concat([x, nm.Tensor(np.zeros((1, cfg.d_model)))]), slots.reshape(-1))
    if rng is not None:
        x = nm.dropout(x, cfg.dropout, rng)
    mask = md._attention_mask(ends, T, int(starts.max()) + T, model.kind == md.AR, starts)
    h = _padded_trunk_forward(model, x, (B, T), mask, rng, cache)
    if cache is not None:
        cache.lengths = ends
    last = np.flatnonzero((pos >= (lengths - np.asarray(heads))[:, None]) & real)
    return nm.matmul(nm.gather_rows(h, last), model.params["head/w"])


def _assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), f"{what} differs from the padded reference"


def _reference_case(kind):
    """A model with dropout on, and a batch of 8 items padded to 512 rows
    (400 real): enough rows that the BLAS splits a padded Xᵀ·G otherwise
    than a packed one, at d_model 64."""
    cfg = tiny_config(d_model=64, n_heads=2, d_ff=128, dropout=0.1)
    rng = np.random.default_rng(29)
    lengths = [64, 37, 55, 41, 60, 33, 48, 62]
    items = []
    for n in lengths:
        n_ph = int(rng.integers(4, 12))
        n_prompt = int(rng.integers(2, 10))
        n_target = n - n_ph - 1 - n_prompt
        if kind == md.AR:
            items.append((rng.integers(0, 10, n_ph), rng.integers(0, 12, n_prompt), rng.integers(0, 12, n_target)))
        else:
            j = int(rng.integers(1, cfg.n_codec_layers + 1))
            items.append((rng.integers(0, 10, n_ph), rng.integers(0, 12, n_target),
                          rng.integers(0, 6, (n_prompt, cfg.n_codec_layers)), rng.integers(0, 6, (n_target, j - 1)), j))
    build = md.build_ar_model if kind == md.AR else md.build_nar_model
    return build(cfg, md.STREAM_PHONETIC if kind == md.AR else md.VARIANT_PROPOSED, seed=8), items


@pytest.mark.parametrize("kind", [md.AR, md.NAR])
def test_packed_trunk_matches_the_padded_reference_bitwise(kind, monkeypatch):
    model, items = _reference_case(kind)

    def train_step():
        for p in model.parameters():
            p.grad = None
        rng = np.random.default_rng(5)
        with Tape() as tape:
            if kind == md.AR:
                logits, targets = md.ar_batch_logits(model, items, rng=rng)
            else:
                logits = md.nar_batch_logits(model, items, rng=rng)
                targets = np.concatenate([np.arange(len(it[3])) % 6 for it in items])
            loss = nm.cross_entropy(logits, targets)
        backward(loss, tape)
        return logits.data, loss.data, {name: p.grad for name, p in model.params.items()}

    logits, loss, grads = train_step()
    monkeypatch.setattr(md, "_run_batch", _padded_run_batch)
    want_logits, want_loss, want_grads = train_step()
    _assert_same_bits(logits, want_logits, "logits")
    _assert_same_bits(loss, want_loss, "loss")
    for name, want in want_grads.items():
        _assert_same_bits(grads[name], want, f"{name}.grad")


def test_packed_cached_decoding_matches_the_padded_reference_bitwise(monkeypatch):
    m, items, steps, tokens = _ragged_decode_case()

    def decode():
        cache = md.KVCache(m, len(items), 32)
        out = [md.ar_batch_logits(m, [(ph, pr, []) for ph, pr in items], cache=cache)[0].data]
        for fed in range(max(steps)):
            out.append(md.ar_step(m, cache, [t[fed % len(t)] for t in tokens]).data)
        return out

    got = decode()
    monkeypatch.setattr(md, "_run_batch", _padded_run_batch)
    for i, (logits, want) in enumerate(zip(got, decode())):
        _assert_same_bits(logits, want, f"logits after {i} steps")
