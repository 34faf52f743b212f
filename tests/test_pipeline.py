import dataclasses
import math

import numpy as np
import pytest

from phonolm import checkpoint
from phonolm import model as md
from phonolm import numerics as nm
from phonolm import pipeline as pl
from phonolm import quantizer as qz
from phonolm import tokenworld as tw
from phonolm.numerics import ContractError


def pooled_accuracy(model, tokenized) -> float:
    """Argmax accuracy of `pl.teacher_forced` batches with no dropout, at
    prompt fractions 0.25, 0.35 and 0.45: every next token (STOP included)
    of an AR model, every predicted layer of a NAR model."""
    n = len(tokenized)
    # an AR batch does not depend on the layer, so it is scored once per fraction
    layers = range(model.min_layer, model.config.n_codec_layers + 1) if model.kind == md.NAR else (0,)
    hits = total = 0
    for frac in (0.25, 0.35, 0.45):
        for j in layers:
            logits, labels = pl.teacher_forced(model, tokenized, np.arange(n), np.full(n, frac), np.full(n, j))
            hits += int((logits.data.argmax(axis=1) == labels).sum())
            total += labels.size
    return hits / total


def quick_config(**kw):
    base = dict(steps=30, batch_size=4, learning_rate=1e-3, seed=3, grad_clip=1.0)
    base.update(kw)
    return pl.TrainingConfig(**base)


def test_training_config_validation():
    with pytest.raises(ContractError):
        pl.TrainingConfig(steps=0)
    with pytest.raises(ContractError):
        pl.TrainingConfig(batch_size=0)
    for seed in (-1, 1.5, True):  # True would train as seed 1 and be recorded as true
        with pytest.raises(ContractError, match="TrainingConfig.seed"):
            pl.TrainingConfig(seed=seed)


@pytest.mark.parametrize("bad", [{"learning_rate": 0.0}, {"grad_clip": 0.0}])
def test_training_config_rejects_non_positive_step_sizes(bad):
    # a grad_clip of 0 would zero every gradient
    with pytest.raises(ContractError, match="must be positive"):
        pl.TrainingConfig(**bad)


@pytest.mark.parametrize("key", ["learning_rate", "grad_clip"])
@pytest.mark.parametrize("value", [float("inf"), True, float("nan"), -1.0, "x"])
def test_training_config_rejects_step_sizes_that_are_not_finite_reals(key, value):
    # True would train at (or clip to) 1.0 and be recorded as true; an
    # infinite clip never clips and is written as the non-JSON Infinity;
    # a grad_clip of -1 would flip every gradient; a string once failed the
    # range check's comparison with a TypeError
    with pytest.raises(ContractError, match=f"TrainingConfig.{key} must be a finite real >= 0"):
        pl.TrainingConfig(**{key: value})


def _utterance(slots):
    return pl.TokenizedUtterance(phonemes=np.arange(3), phonetic=np.arange(2 * slots),
                                 codes=np.arange(6 * slots).reshape(3 * slots, 2))


def test_split_slots_bounds():
    # (slots, frac, prompt slots): the prompt is never empty, nor is the target
    for slots, frac, k in [(10, 0.2, 2), (10, 0.5, 5), (2, 0.01, 1), (2, 0.99, 1)]:
        ((_, prompt, target),) = pl.prompted_items([_utterance(slots)], [0], [frac])
        assert (prompt.slots, target.slots) == (k, slots - k)
        assert (len(prompt.codes), len(target.codes)) == (3 * k, 3 * (slots - k))
    with pytest.raises(ContractError):
        pl.prompted_items([_utterance(1)], [0], [0.3])


def test_training_items_are_the_prefix_cut_of_each_utterance(tiny_corpus, tiny_quantizers):
    """Every training item, array for array, against the prefix slicing
    written out here: k slots of prompt are ids[:k * len(ids) // slots] of
    an AR stream, and codes[:3k] with phonetic[2k:] upsampled for a NAR."""
    tokenized = pl.tokenize_utterances(tiny_corpus.train, tiny_quantizers)
    # every cut k of every utterance, then one training draw
    every_k = [(i, k / tu.slots) for i, tu in enumerate(tokenized) for k in range(1, tu.slots)]
    drawn = pl.batch_schedule(len(tokenized), quick_config(seed=5))
    cuts = every_k + list(zip(drawn[0][0].tolist(), drawn[1][0]))
    idxs, fracs = (np.array(c) for c in zip(*cuts))
    ks = [min(max(int(round(f * tokenized[i].slots)), 1), tokenized[i].slots - 1) for i, f in cuts]
    assert ks[: len(every_k)] == [k for tu in tokenized for k in range(1, tu.slots)]

    def same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    for stream in (md.STREAM_PHONETIC, md.STREAM_CODEC):
        items = pl.ar_training_items(tokenized, idxs, fracs, stream)
        assert len(items) == len(cuts)
        for (phonemes, prompt, target), i, k in zip(items, idxs, ks):
            tu = tokenized[i]
            ids = tu.phonetic if stream == md.STREAM_PHONETIC else tu.codes[:, 0]
            cut = k * len(ids) // tu.slots
            same(phonemes, tu.phonemes)
            same(prompt, ids[:cut])
            same(target, ids[cut:])
    n_layers = tiny_quantizers.rvq.n_layers
    for variant, min_layer in ((md.VARIANT_PROPOSED, 1), (md.VARIANT_BASELINE, 2)):
        for j in range(min_layer, n_layers + 1):
            items, labels = pl.nar_training_items(tokenized, idxs, fracs, np.full(len(cuts), j), variant)
            assert len(items) == len(cuts)
            want_labels = []
            for (phonemes, cond, prompt, below, layer), i, k in zip(items, idxs, ks):
                tu = tokenized[i]
                same(phonemes, tu.phonemes)
                if variant == md.VARIANT_PROPOSED:
                    same(cond, qz.upsample_tokens(tu.phonetic[2 * k :]))
                else:
                    assert cond is None
                same(prompt, tu.codes[: 3 * k])
                same(below, tu.codes[3 * k :][:, : j - 1])
                assert layer == j
                want_labels.append(tu.codes[3 * k :][:, j - 1])
            same(labels, np.concatenate(want_labels))


def test_train_mode_rejects_utterances_too_short_to_split_before_step_0(monkeypatch):
    spec = tw.WorldSpec(phoneme_vocab_size=12, num_speakers=4, feature_dim=8, utterance_len_min=1,
                        utterance_len_max=2, duration_min=1, duration_max=1, seed=3)
    corpus = tw.build_corpus(spec, 20, 4, np.random.default_rng(0))
    quantizers = pl.fit_corpus_quantizers(corpus, k_phonetic=8, k_codec=4, n_layers=2, max_iters=3, seed=1)
    monkeypatch.setattr(pl, "_run_training", lambda *a: pytest.fail("training started"))
    with pytest.raises(ContractError, match=r"train utterance \d+ has 1 slot\(s\)"):
        pl.train_mode("nar", corpus, quantizers, quick_config(steps=2, batch_size=2, seed=1),
                      pl.default_model_config(spec, quantizers))


def test_train_mode_rejects_a_baseline_nar_on_a_one_layer_codec_before_tokenizing(monkeypatch, tiny_corpus):
    quantizers = pl.fit_corpus_quantizers(tiny_corpus, k_phonetic=8, k_codec=4, n_layers=1, max_iters=3, seed=1)
    monkeypatch.setattr(pl, "tokenize_utterances", lambda *a: pytest.fail("tokenized"))
    with pytest.raises(ContractError, match="n_codec_layers >= 2, got 1"):
        pl.train_mode(pl.MODE_BASELINE_NAR, tiny_corpus, quantizers, quick_config(steps=2, batch_size=2),
                      pl.default_model_config(tiny_corpus.world_spec, quantizers))


def test_batch_schedule_mode_independent(tiny_corpus, tiny_quantizers):
    cfg = quick_config(seed=11)
    a = pl.batch_schedule(24, cfg)
    b = pl.batch_schedule(24, cfg)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_proposed_and_baseline_ar_batches_differ_only_in_target_stream(
    tiny_corpus, tiny_quantizers
):
    cfg = quick_config(seed=9)
    tokenized = pl.tokenize_utterances(tiny_corpus.train, tiny_quantizers)
    idxs, fracs = pl.batch_schedule(len(tokenized), cfg)
    prop = pl.ar_training_items(tokenized, idxs[0], fracs[0], md.STREAM_PHONETIC)
    base = pl.ar_training_items(tokenized, idxs[0], fracs[0], md.STREAM_CODEC)
    for (ph_p, pr_p, tg_p), (ph_b, pr_b, tg_b) in zip(prop, base):
        np.testing.assert_array_equal(ph_p, ph_b)            # same utterances
        assert 3 * len(pr_p) == 2 * len(pr_b)                # same split point, 2:3 rates
        assert 3 * len(tg_p) == 2 * len(tg_b)


def test_ar_initial_loss_near_uniform(tiny_corpus, tiny_quantizers, tiny_model_config):
    model, losses = pl.train_mode(
        pl.MODE_PROPOSED_AR, tiny_corpus, tiny_quantizers, quick_config(steps=1), tiny_model_config
    )
    want = math.log(model.output_vocab)
    assert abs(losses[0] - want) / want < 0.10


def test_baseline_ar_initial_loss_near_uniform(tiny_corpus, tiny_quantizers, tiny_model_config):
    model, losses = pl.train_mode(
        pl.MODE_BASELINE_AR, tiny_corpus, tiny_quantizers, quick_config(steps=1), tiny_model_config
    )
    want = math.log(model.output_vocab)
    assert abs(losses[0] - want) / want < 0.10


def test_nar_initial_loss_near_uniform(tiny_corpus, tiny_quantizers, tiny_model_config):
    model, losses = pl.train_mode(pl.MODE_NAR, tiny_corpus, tiny_quantizers, quick_config(steps=1), tiny_model_config)
    want = math.log(tiny_model_config.codec_vocab)
    assert abs(losses[0] - want) / want < 0.10


def test_ar_training_descends_and_stays_finite(tiny_corpus, tiny_quantizers, tiny_model_config):
    model, losses = pl.train_mode(
        pl.MODE_PROPOSED_AR, tiny_corpus, tiny_quantizers, quick_config(steps=60, seed=4), tiny_model_config
    )
    assert all(np.isfinite(l) for l in losses)
    assert np.mean(losses[-10:]) < losses[0]


def test_nar_training_descends(tiny_corpus, tiny_quantizers, tiny_model_config):
    model, losses = pl.train_mode(
        pl.MODE_NAR, tiny_corpus, tiny_quantizers, quick_config(steps=60, seed=4), tiny_model_config
    )
    assert all(np.isfinite(l) for l in losses)
    assert np.mean(losses[-10:]) < losses[0]
    tokenized = pl.tokenize_utterances(tiny_corpus.train, tiny_quantizers)
    assert pooled_accuracy(model, tokenized) > 0.1


def test_baseline_nar_layer_range(tiny_corpus, tiny_quantizers, tiny_model_config):
    cfg = quick_config(steps=5)
    layers = pl.layer_schedule(cfg, 2, tiny_model_config.n_codec_layers)
    assert layers.min() >= 2
    assert layers.max() <= tiny_model_config.n_codec_layers
    model, losses = pl.train_mode(pl.MODE_BASELINE_NAR, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    assert model.min_layer == 2


def test_training_determinism(tiny_corpus, tiny_quantizers, tiny_model_config):
    cfg = quick_config(steps=10, seed=21)
    m1, l1 = pl.train_mode(pl.MODE_PROPOSED_AR, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    m2, l2 = pl.train_mode(pl.MODE_PROPOSED_AR, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    assert l1 == l2
    for a, b in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("mode", list(pl.MODES))
def test_train_mode_builds_the_model_its_table_entry_names(tiny_corpus, tiny_quantizers, tiny_model_config, mode):
    model, losses = pl.train_mode(mode, tiny_corpus, tiny_quantizers, quick_config(steps=1), tiny_model_config)
    entry = pl.MODES[mode]
    assert (model.kind, model.role) == (entry.kind, entry.role)
    assert len(losses) == 1
    with pytest.raises(ContractError, match="unknown training mode"):
        pl.train_mode(mode + "_x", tiny_corpus, tiny_quantizers, quick_config(steps=1), tiny_model_config)


@pytest.mark.parametrize("mode", list(pl.MODES))
def test_training_and_the_probe_build_one_batch(tiny_corpus, tiny_quantizers, tiny_model_config, mode):
    # step 0 rebuilt through `teacher_forced` from a fresh model, the two
    # schedules and the dropout stream is the step `train_mode` took
    cfg = quick_config(steps=1)
    _, losses = pl.train_mode(mode, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    entry = pl.MODES[mode]
    build = md.build_ar_model if entry.kind == md.AR else md.build_nar_model
    model = build(tiny_model_config, entry.role, seed=cfg.seed)
    tokenized = pl.tokenize_utterances(tiny_corpus.train, tiny_quantizers)
    idxs, fracs = pl.batch_schedule(len(tokenized), cfg)
    layers = pl.layer_schedule(cfg, model.min_layer, tiny_model_config.n_codec_layers)
    drop_rng = np.random.default_rng([cfg.seed, pl._DROP_STREAM])
    batch = pl.teacher_forced(model, tokenized, idxs[0], fracs[0], layers[0], rng=drop_rng)
    assert nm.cross_entropy(*batch).item() == losses[0]
    assert 0.0 <= pooled_accuracy(model, tokenized) <= 1.0


@pytest.mark.parametrize("mode", [pl.MODE_PROPOSED_AR, pl.MODE_BASELINE_AR])
def test_ar_modes_train_on_a_one_layer_codec(tiny_corpus, tiny_model_config, mode):
    # an AR model's stream needs codec layer 1 only; there is no NAR layer to draw
    quantizers = pl.fit_corpus_quantizers(tiny_corpus, k_phonetic=16, k_codec=8, n_layers=1, max_iters=3, seed=5)
    mc = md.ModelConfig(**{**dataclasses.asdict(tiny_model_config), "n_codec_layers": 1})
    model, losses = pl.train_mode(mode, tiny_corpus, quantizers, quick_config(steps=2), mc)
    assert len(losses) == 2 and all(np.isfinite(losses))
    assert 0.0 <= pooled_accuracy(model, pl.tokenize_utterances(tiny_corpus.train, quantizers)) <= 1.0


def test_vocab_mismatch_rejected(tiny_corpus, tiny_quantizers, tiny_model_config):
    bad = md.ModelConfig(**{**dataclasses.asdict(tiny_model_config), "phonetic_vocab": 99})
    with pytest.raises(ContractError):
        pl.train_mode(pl.MODE_PROPOSED_AR, tiny_corpus, tiny_quantizers, quick_config(steps=1), bad)


def test_training_stops_at_non_finite_gradient(linear_head):
    # The loss is finite (the two products cancel), but w's two gradient paths
    # are 2 * 1e308 = inf and 2 * -1e308 = -inf, which sum to NaN.
    w = nm.Tensor(np.full((2, 1), 0.25), requires_grad=True)
    x = nm.Tensor(np.full((1, 2), 1e308))

    class OneParam:
        def parameters(self):
            return [w]

    def step_forward(step, drop_rng):
        both = nm.concat([nm.matmul(x, w), nm.matmul(nm.Tensor(-x.data), w)])
        return linear_head(both, 2.0)

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        pl.TrainingError, match="non-finite gradient norm nan at step 0"
    ):
        pl._run_training(OneParam(), step_forward, quick_config(steps=3))
    np.testing.assert_array_equal(w.data, 0.25)  # Adam never ran


def test_training_stops_at_a_non_finite_loss_naming_its_step(linear_head):
    w = nm.Tensor(np.ones((2, 1)), requires_grad=True)

    class OneParam:
        def parameters(self):
            return [w]

    def step_forward(step, drop_rng):
        return linear_head(w, 1.0 if step == 0 else np.inf)

    with pytest.raises(pl.TrainingError, match="non-finite loss inf at step 1"):
        pl._run_training(OneParam(), step_forward, quick_config(steps=3))
    np.testing.assert_array_equal(w.grad, 0.0)  # step 0's Adam zeroed it; step 1 never ran backward


def _make_bundles(tiny_corpus, tiny_quantizers, tiny_model_config, steps=30, seed=5):
    cfg = quick_config(steps=steps, seed=seed)
    ar, _ = pl.train_mode(pl.MODE_PROPOSED_AR, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    nar, _ = pl.train_mode(pl.MODE_NAR, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    bar, _ = pl.train_mode(pl.MODE_BASELINE_AR, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    bnar, _ = pl.train_mode(pl.MODE_BASELINE_NAR, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    prop = pl.SystemBundle(
        world_spec=tiny_corpus.world_spec, quantizers=tiny_quantizers,
        ar=ar, nar=nar, kind=pl.KIND_PROPOSED,
    )
    base = pl.SystemBundle(
        world_spec=tiny_corpus.world_spec, quantizers=tiny_quantizers,
        ar=bar, nar=bnar, kind=pl.KIND_BASELINE,
    )
    return prop, base


@pytest.fixture(scope="module")
def tiny_bundles(tiny_corpus, tiny_quantizers, tiny_model_config):
    return _make_bundles(tiny_corpus, tiny_quantizers, tiny_model_config)


def test_bundle_kind_model_consistency(tiny_bundles):
    prop, base = tiny_bundles
    with pytest.raises(ContractError):
        pl.SystemBundle(
            world_spec=prop.world_spec, quantizers=prop.quantizers,
            ar=base.ar, nar=prop.nar, kind=pl.KIND_PROPOSED,
        )


def test_synthesize_length_law_proposed(tiny_bundles, tiny_corpus):
    prop, _ = tiny_bundles
    utt = tiny_corpus.test_clean[0]
    prompt = tiny_corpus.test_clean[1]
    req = pl.SynthesisRequest(phonemes=utt.phonemes, prompt=prompt)
    res = pl.synthesize_many(prop, [req], [0])[0]
    assert res.codes.shape[0] == -(-3 * res.generated_length // 2)
    assert res.codes.shape[1] == prop.quantizers.rvq.n_layers
    assert res.phonetic_tokens.shape[0] == res.generated_length


def test_synthesize_baseline_layer1_is_generated_stream(tiny_bundles, tiny_corpus):
    _, base = tiny_bundles
    utt = tiny_corpus.test_clean[0]
    req = pl.SynthesisRequest(phonemes=utt.phonemes, prompt=tiny_corpus.test_clean[1])
    res = pl.synthesize_many(base, [req], [1])[0]
    assert res.codes.shape[0] == res.generated_length
    assert res.phonetic_tokens is None


def test_synthesize_determinism(tiny_bundles, tiny_corpus):
    prop, _ = tiny_bundles
    req = pl.SynthesisRequest(
        phonemes=tiny_corpus.test_clean[2].phonemes, prompt=tiny_corpus.test_clean[3]
    )
    a = pl.synthesize_many(prop, [req], [42])[0]
    b = pl.synthesize_many(prop, [req], [42])[0]
    np.testing.assert_array_equal(a.codes, b.codes)
    assert a.runaway == b.runaway


def _ten_requests(corpus):
    utts = corpus.test_clean + corpus.test_other
    reqs = [pl.SynthesisRequest(phonemes=utts[i].phonemes, prompt=utts[-1 - i]) for i in range(10)]
    return reqs, list(range(100, 110))


def test_synthesize_many_matches_chunked_order(tiny_bundles, tiny_corpus):
    # 10 requests are the fixed chunks [0, 8) and [8, 10), each decoded as one batch
    for bundle in tiny_bundles:
        reqs, seeds = _ten_requests(tiny_corpus)
        got = pl.synthesize_many(bundle, reqs, seeds)
        want = pl.synthesize_many(bundle, reqs[:8], seeds[:8]) + pl.synthesize_many(bundle, reqs[8:], seeds[8:])
        assert len(got) == len(want) == 10
        for g, w in zip(got, want):
            assert (g.generated_length, g.runaway) == (w.generated_length, w.runaway)
            np.testing.assert_array_equal(g.codes, w.codes)
            np.testing.assert_array_equal(g.phonetic_tokens, w.phonetic_tokens)


def test_synthesize_many_tokenizes_each_chunks_prompts_in_one_call(tiny_bundles, tiny_corpus, monkeypatch):
    calls = []
    tokenize = pl.tokenize_utterances

    def counting(utts, quantizers):
        calls.append(len(utts))
        return tokenize(utts, quantizers)

    monkeypatch.setattr(pl, "tokenize_utterances", counting)
    reqs, seeds = _ten_requests(tiny_corpus)
    pl.synthesize_many(tiny_bundles[0], reqs, seeds)
    assert calls == [8, 2]


def test_synthesize_runaway_definition(tiny_bundles, tiny_corpus):
    # an untrained model rarely emits STOP: tight cap must trip the flag
    prop, _ = tiny_bundles
    fresh_ar = md.build_ar_model(prop.ar.config, md.STREAM_PHONETIC, seed=123)
    fresh = pl.SystemBundle(
        world_spec=prop.world_spec, quantizers=prop.quantizers,
        ar=fresh_ar, nar=prop.nar, kind=pl.KIND_PROPOSED,
    )
    req = pl.SynthesisRequest(
        phonemes=tiny_corpus.test_clean[0].phonemes,
        prompt=tiny_corpus.test_clean[1],
        max_length_factor=1.1,
        top_k=1,
    )
    res = pl.synthesize_many(fresh, [req], [3])[0]
    if res.runaway:
        assert res.generated_length >= 1
    else:
        # STOP was sampled before the cap
        cap = int(np.ceil(1.1 * pl._expected_generation(req, prop.world_spec, md.STREAM_PHONETIC)))
        assert res.generated_length < cap


def test_synthesize_rejects_empty_prompt(tiny_bundles, tiny_corpus):
    with pytest.raises(ContractError):
        pl.SynthesisRequest(phonemes=[1, 2], prompt=None)
    with pytest.raises(ContractError):
        pl.SynthesisRequest(phonemes=[], prompt=tiny_corpus.test_clean[0])


@pytest.mark.parametrize("case", ["phoneme_above_vocab", "negative_phoneme", "no_headroom", "no_seed", "two_seeds"])
def test_synthesize_rejects_a_request_it_cannot_decode(tiny_bundles, tiny_corpus, monkeypatch, case):
    phonemes, seeds, named = {
        "phoneme_above_vocab": ([1, 12], [0], "phoneme id out of range for this world"),
        "negative_phoneme": ([-1, 2], [0], "phoneme id out of range for this world"),
        "no_headroom": ([1, 2] * 80, [0], "prompt leaves no room for generation under max_sequence_len"),
        "no_seed": ([1, 2], [], "one seed per request"),
        "two_seeds": ([1, 2], [0, 1], "one seed per request"),
    }[case]
    prop, _ = tiny_bundles
    assert prop.world_spec.phoneme_vocab_size == 12 and prop.ar.config.max_sequence_len == 160
    monkeypatch.setattr(pl, "_generate_tokens", lambda *a: pytest.fail("decoded"))
    req = pl.SynthesisRequest(phonemes=phonemes, prompt=tiny_corpus.test_clean[1])
    with pytest.raises(ContractError, match=named):
        pl.synthesize_many(prop, [req], seeds)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 1.0, 0.5])
def test_synthesis_request_needs_a_finite_length_factor_above_one(tiny_corpus, factor):
    utt = tiny_corpus.test_clean[0]
    with pytest.raises(ContractError, match=r"max_length_factor must be a finite number > 1"):
        pl.SynthesisRequest(phonemes=utt.phonemes, prompt=utt, max_length_factor=factor)


def test_bundle_save_load_round_trip(tiny_bundles, tiny_corpus, tmp_path):
    prop, base = tiny_bundles
    pl.save_bundle(prop, tmp_path)
    pl.save_bundle(base, tmp_path)
    assert set(pl.available_bundle_kinds(tmp_path)) == {pl.KIND_PROPOSED, pl.KIND_BASELINE}
    loaded = pl.load_bundle(tmp_path, pl.KIND_PROPOSED)
    req = pl.SynthesisRequest(
        phonemes=tiny_corpus.test_clean[0].phonemes, prompt=tiny_corpus.test_clean[1]
    )
    a = pl.synthesize_many(prop, [req], [7])[0]
    b = pl.synthesize_many(loaded, [req], [7])[0]
    np.testing.assert_array_equal(a.codes, b.codes)
    assert loaded.ar.training == loaded.nar.training == dataclasses.asdict(quick_config(steps=30, seed=5))


def test_stages_saved_apart_write_the_bundle_save_bundle_writes(tiny_bundles, tmp_path):
    prop, _ = tiny_bundles
    pl.save_bundle(prop, tmp_path / "whole")
    written = [
        pl.save_stages(tmp_path / "apart", prop.world_spec, prop.quantizers, {pl.MODES[mode]: model})
        for mode, model in ((pl.MODE_NAR, prop.nar), (pl.MODE_PROPOSED_AR, prop.ar))
    ]
    assert written[0] == ["nar.ckpt", "nar.json", "quantizers.ckpt", "quantizers.json", "proposed_bundle.json"]
    names = sorted(p.name for p in (tmp_path / "whole").iterdir())
    assert names == sorted(pl.bundle_files(pl.KIND_PROPOSED)) == sorted(set(written[0]) | set(written[1]))
    for name in names:
        assert (tmp_path / "apart" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_incomplete_bundle_reports_missing(tmp_path):
    missing = pl.missing_bundle_files(tmp_path, pl.KIND_PROPOSED)
    assert "ar.ckpt" in missing and "quantizers.ckpt" in missing
    with pytest.raises(ContractError):
        pl.load_bundle(tmp_path, pl.KIND_PROPOSED)


@pytest.mark.parametrize("case", ["model", "no_phonetic", "no_rvq", "extra", "unequal_dims", "not_a_matrix"])
def test_load_quantizers_rejects_containers_that_are_not_a_quantizer_set(tmp_path, tiny_quantizers, case):
    qz.save_quantizers(tiny_quantizers, tmp_path / "q.ckpt")
    good = checkpoint.load_tensors(tmp_path / "q.ckpt")
    phonetic, rvq1 = good["phonetic/centroids"], good["rvq/layer1/centroids"]
    bad = {
        "no_phonetic": {k: v for k, v in good.items() if k != "phonetic/centroids"},
        "no_rvq": {"phonetic/centroids": phonetic},
        "extra": {**good, "rvq/layer9/centroids": rvq1},
        "unequal_dims": {**good, "rvq/layer1/centroids": rvq1[:, :-1]},
        "not_a_matrix": {**good, "phonetic/centroids": phonetic.reshape(-1)},
    }
    if case == "model":
        cfg = md.ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=8)
        md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=0).save(tmp_path / "bad.ckpt")
    else:
        checkpoint.save_tensors(tmp_path / "bad.ckpt", bad[case])
    with pytest.raises(checkpoint.CheckpointError):
        qz.load_quantizers(tmp_path / "bad.ckpt")
    loaded = qz.load_quantizers(tmp_path / "q.ckpt")
    assert (loaded.phonetic.k, loaded.rvq.n_layers) == (tiny_quantizers.phonetic.k, tiny_quantizers.rvq.n_layers)


def test_overfit_single_utterance_smoke(tiny_world_spec):
    # scaled-down version of the overfit gate: one utterance, short budget
    spec = tiny_world_spec
    rng = np.random.default_rng(55)
    utt = tw.sample_utterance(spec, 0, tw.CLEAN, rng, phonemes=[1, 4, 7, 2, 9, 5])
    corpus = tw.Corpus(train=[utt], test_clean=[], test_other=[], world_spec=spec)
    quant = pl.fit_corpus_quantizers(corpus, k_phonetic=8, k_codec=4, n_layers=3, seed=1)
    cfg = pl.TrainingConfig(steps=220, batch_size=2, learning_rate=2e-3, seed=8)
    mc = md.ModelConfig(
        n_layers=2, n_heads=2, d_model=32, d_ff=64, dropout=0.0,
        phoneme_vocab=spec.phoneme_vocab_size, phonetic_vocab=8, codec_vocab=4,
        n_codec_layers=3, max_sequence_len=128,
    )
    model, losses = pl.train_mode(pl.MODE_PROPOSED_AR, corpus, quant, cfg, mc)
    tokenized = pl.tokenize_utterances(corpus.train, quant)
    acc = pooled_accuracy(model, tokenized)
    assert acc > 0.95
    assert losses[-1] < 0.3


def test_synthesize_caps_generation_to_fit_nar_input():
    # Long phoneme strings with long prompts: AR headroom alone would let a
    # proposed system upsample past the NAR's max_sequence_len.
    spec = tw.WorldSpec(utterance_len_min=10, utterance_len_max=12, duration_min=3, duration_max=3)
    corpus = tw.build_corpus(spec, 60, 8, np.random.default_rng(0))
    quant = pl.fit_corpus_quantizers(corpus, max_iters=3)
    cfg = md.ModelConfig(
        n_layers=1, n_heads=2, d_model=16, d_ff=32, dropout=0.0,
        phoneme_vocab=spec.phoneme_vocab_size, phonetic_vocab=quant.phonetic.k,
        codec_vocab=quant.rvq.vocab, n_codec_layers=quant.rvq.n_layers, max_sequence_len=256,
    )
    bundle = pl.SystemBundle(
        world_spec=spec, quantizers=quant,
        ar=md.build_ar_model(cfg, md.STREAM_PHONETIC, seed=0),
        nar=md.build_nar_model(cfg, md.VARIANT_PROPOSED, seed=1),
        kind=pl.KIND_PROPOSED,
    )
    utt = max(corpus.test_clean, key=lambda u: len(u.phonemes))
    req = pl.SynthesisRequest(phonemes=utt.phonemes, prompt=utt)
    results = pl.synthesize_many(bundle, [req] * 3, [2, 7, 8])
    base = 2 * len(utt.phonemes) + 1 + utt.acoustic_frames.shape[0]
    for res in results:
        assert res.codes.shape[0] == math.ceil(3 * res.generated_length / 2)
        assert base + res.codes.shape[0] <= cfg.max_sequence_len


@pytest.mark.parametrize("mode", list(pl.MODES))
def test_train_mode_tokenizes_only_the_drawn_utterances(tiny_corpus, tiny_quantizers, tiny_model_config,
                                                        monkeypatch, mode):
    cfg = quick_config(steps=3, seed=31)
    drawn = np.unique(pl.batch_schedule(len(tiny_corpus.train), cfg)[0])
    assert 0 < drawn.size < len(tiny_corpus.train)
    tokenize = pl.tokenize_utterances
    received = []

    def recording(utts, quantizers):
        received.append(list(utts))
        return tokenize(utts, quantizers)

    monkeypatch.setattr(pl, "tokenize_utterances", recording)
    model, losses = pl.train_mode(mode, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    assert len(received) == 1
    assert [id(u) for u in received[0]] == [id(tiny_corpus.train[i]) for i in drawn]

    # the same training from tokens of the whole split
    whole = dict(zip(map(id, tiny_corpus.train), tokenize(tiny_corpus.train, tiny_quantizers)))
    monkeypatch.setattr(pl, "tokenize_utterances", lambda utts, quantizers: [whole[id(u)] for u in utts])
    ref_model, ref_losses = pl.train_mode(mode, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    assert losses == ref_losses
    for a, b in zip(model.parameters(), ref_model.parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_tokenize_utterances_matches_per_utterance_encoding(tiny_corpus, tiny_quantizers):
    utts = tiny_corpus.train[:7] + tiny_corpus.test_other
    for batch in (utts, utts[:1], []):
        got = pl.tokenize_utterances(batch, tiny_quantizers)
        assert len(got) == len(batch)
        for u, tu in zip(batch, got):
            np.testing.assert_array_equal(tu.phonemes, u.phonemes)
            np.testing.assert_array_equal(
                tu.phonetic, qz.kmeans_assign(u.phonetic_frames, tiny_quantizers.phonetic)
            )
            np.testing.assert_array_equal(tu.codes, qz.rvq_encode(u.acoustic_frames, tiny_quantizers.rvq))


def _full_recompute_tokens(model, entries):
    """Decoding without a cache: one full ar_batch_logits pass over every
    entry's whole prefix per sampled token."""
    active = list(entries)
    while active:
        items = [(e.phonemes, e.prompt.stream(model.role), np.asarray(e.generated, dtype=np.int64)) for e in active]
        logits, _ = md.ar_batch_logits(model, items)
        offset = 0
        live = []
        for e in active:
            offset += len(e.generated) + 1
            token = md.ar_sample_next(logits.data[offset - 1], e.request.temperature, e.request.top_k, e.rng)
            if token != model.stop_id:
                e.generated.append(token)
                if len(e.generated) >= e.cap:
                    e.runaway = True
                else:
                    live.append(e)
        active = live


def _entries(bundle, reqs, seeds):
    prompts = pl.tokenize_utterances([r.prompt for r in reqs], bundle.quantizers)
    return [
        pl._prepare_entry(bundle, r, p, np.random.default_rng(s))
        for r, p, s in zip(reqs, prompts, seeds)
    ]


def _never_stopping(bundle):
    """The bundle with an untrained AR model whose STOP logit is always
    about 100 below the others: final_ln/bias[0] = 10 meets head/w[0] = -10
    in the STOP column only."""
    ar = md.build_ar_model(bundle.ar.config, bundle.ar.role, seed=82)
    ar.params["final_ln/bias"].data[0] = 10.0
    ar.params["head/w"].data[0] = 0.0
    ar.params["head/w"].data[0, ar.stop_id] = -10.0
    return dataclasses.replace(bundle, ar=ar)


@pytest.mark.parametrize("kind", [pl.KIND_PROPOSED, pl.KIND_BASELINE])
def test_cached_decoding_matches_full_recompute(tiny_bundles, tiny_corpus, kind):
    trained = tiny_bundles[0 if kind == pl.KIND_PROPOSED else 1]
    utts = tiny_corpus.test_clean + tiny_corpus.test_other
    # factor 40 asks for more tokens than max_sequence_len leaves room for
    shapes = [(2.0, 8), (1.1, 8), (40.0, 1), (2.0, 1), (3.0, 4), (40.0, 8)]
    reqs = [
        pl.SynthesisRequest(phonemes=utts[i].phonemes, prompt=utts[-1 - i], max_length_factor=f, top_k=k)
        for i, (f, k) in enumerate(shapes)
    ]
    seeds = [11, 12, 13, 14, 15, 16]
    stops = at_limit = 0
    for bundle in (trained, _never_stopping(trained)):
        got = pl.synthesize_many(bundle, reqs, seeds)
        entries = _entries(bundle, reqs, seeds)
        _full_recompute_tokens(bundle.ar, entries)
        want = pl._predict_codes(bundle, entries)
        for g, w, r, e in zip(got, want, reqs, entries):
            assert (g.generated_length, g.runaway) == (w.generated_length, w.runaway)
            np.testing.assert_array_equal(g.codes, w.codes)
            if kind == pl.KIND_PROPOSED:
                np.testing.assert_array_equal(g.phonetic_tokens, w.phonetic_tokens)
            stops += not g.runaway
            wanted = math.ceil(r.max_length_factor * pl._expected_generation(r, bundle.world_spec, bundle.ar.role))
            at_limit += g.runaway and e.cap < wanted
    assert stops >= 1 and at_limit >= 2


def test_cached_decoding_fills_max_sequence_len_exactly(tiny_bundles, tiny_corpus):
    bundle = _never_stopping(tiny_bundles[0])
    ar = bundle.ar
    req = pl.SynthesisRequest(phonemes=tiny_corpus.test_clean[0].phonemes, prompt=tiny_corpus.test_clean[1], top_k=1)

    def entry(extra):
        (e,) = _entries(bundle, [req], [0])
        base = len(e.phonemes) + 1 + len(e.prompt.stream(ar.role))
        # the last token fed sits at position base + cap - 2
        e.cap = ar.config.max_sequence_len - base + 1 + extra
        return e

    cached, full = entry(0), entry(0)
    pl._generate_tokens(ar, [cached])
    _full_recompute_tokens(ar, [full])
    assert cached.runaway and full.runaway
    assert cached.generated == full.generated
    base = len(cached.phonemes) + 1 + len(cached.prompt.stream(ar.role))
    assert base + len(cached.generated) - 1 == ar.config.max_sequence_len
    for run in (pl._generate_tokens, _full_recompute_tokens):
        with pytest.raises(md.SequenceLengthError):
            run(ar, [entry(1)])
