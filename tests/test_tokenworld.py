import json

import numpy as np
import pytest

from phonolm.numerics import ContractError
from phonolm import tokenworld as tw


def _edit_distance(a, b):
    # small local DP, independent of the evaluation module
    m, n = len(a), len(b)
    dp = list(range(n + 1))
    for i in range(1, m + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, n + 1):
            cur = dp[j]
            dp[j] = min(dp[j] + 1, dp[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
            prev = cur
    return dp[n]


def zero_noise_spec(**kw):
    base = dict(prosody_noise_sigma=0.0, condition_noise_sigma_clean=0.0,
                condition_noise_sigma_other=0.1, seed=5)
    base.update(kw)
    return tw.WorldSpec(**base)


def test_rate_ratio_enforced():
    with pytest.raises(ContractError):
        tw.WorldSpec(phonetic_rate_per_slot=2, acoustic_rate_per_slot=4)


def test_noise_ordering_enforced():
    with pytest.raises(ContractError):
        tw.WorldSpec(condition_noise_sigma_clean=0.2, condition_noise_sigma_other=0.1)


def test_zero_noise_acoustic_minus_speaker_is_prototype():
    spec = zero_noise_spec()
    rng = np.random.default_rng(0)
    utt = tw.sample_utterance(spec, speaker=3, condition=tw.CLEAN, rng=rng)
    protos = tw.content_prototypes(spec)
    spk = tw.speaker_vectors(spec)[3]
    # every slot has 2 phonetic / 3 acoustic frames of the same phoneme
    slots = len(utt.phonetic_frames) // spec.phonetic_rate_per_slot
    slot_phonemes = np.asarray(utt.phonemes)[utt.alignment[::2]]
    want = np.repeat(protos[slot_phonemes], 3, axis=0)
    np.testing.assert_array_equal(utt.acoustic_frames, want + spk)
    np.testing.assert_allclose(utt.acoustic_frames - spk, want, atol=1e-15)
    np.testing.assert_array_equal(utt.phonetic_frames, np.repeat(protos[slot_phonemes], 2, axis=0))
    assert len(utt.acoustic_frames) == 3 * slots


def test_forced_duration_one_gives_two_frames_per_phoneme():
    spec = zero_noise_spec(duration_min=1, duration_max=1)
    utt = tw.sample_utterance(spec, 0, tw.CLEAN, np.random.default_rng(1))
    assert utt.phonetic_frames.shape[0] == 2 * len(utt.phonemes)


def test_rate_invariant_on_generated_utterances():
    spec = tw.WorldSpec(seed=2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        utt = tw.sample_utterance(spec, int(rng.integers(8)), tw.OTHER, rng)
        assert 2 * utt.acoustic_frames.shape[0] == 3 * utt.phonetic_frames.shape[0]
        assert utt.alignment.max() < len(utt.phonemes)


def test_no_adjacent_repeated_phonemes():
    spec = tw.WorldSpec(seed=3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        seq = tw.sample_phonemes(spec, rng)
        assert all(a != b for a, b in zip(seq, seq[1:]))


def test_empty_phonemes_rejected():
    with pytest.raises(ContractError):
        tw.sample_utterance(tw.WorldSpec(), 0, tw.CLEAN, np.random.default_rng(0), phonemes=[])


def test_oracle_transcribe_collapses_runs():
    spec = zero_noise_spec()
    protos = tw.content_prototypes(spec)
    spk = tw.speaker_vectors(spec)[0]
    frames = protos[[3, 3, 5, 5]] + spk
    assert tw.oracle_transcribe(frames, spec) == [3, 5]


def test_oracle_soundness_zero_noise():
    spec = zero_noise_spec()
    rng = np.random.default_rng(4)
    for _ in range(10):
        utt = tw.sample_utterance(spec, int(rng.integers(8)), tw.CLEAN, rng)
        assert tw.oracle_transcribe(utt.acoustic_frames, spec) == utt.phonemes
        assert tw.oracle_speaker(utt.acoustic_frames, spec) == utt.speaker_id


def test_oracle_agrees_with_bruteforce_nearest_pair():
    spec = tw.WorldSpec(seed=6)
    rng = np.random.default_rng(6)
    utts = [tw.sample_utterance(spec, int(rng.integers(8)), tw.CLEAN, rng) for _ in range(30)]
    frames = np.concatenate([u.acoustic_frames for u in utts])[:1000]
    content, spk = tw.content_prototypes(spec), tw.speaker_vectors(spec)
    got_c, got_s = tw._classify_frames(frames, spec)
    for i in range(frames.shape[0]):
        best = (np.inf, -1, -1)
        for p in range(spec.phoneme_vocab_size):
            for s in range(spec.num_speakers):
                d = float(((frames[i] - content[p] - spk[s]) ** 2).sum())
                if d < best[0]:
                    best = (d, p, s)
        assert (got_c[i], got_s[i]) == (best[1], best[2])


def test_oracle_speaker_majority_rule():
    spec = zero_noise_spec()
    protos = tw.content_prototypes(spec)
    spk = tw.speaker_vectors(spec)
    frames = np.concatenate([
        protos[[1] * 7] + spk[2],   # 70% speaker 2
        protos[[1] * 3] + spk[5],   # 30% speaker 5
    ])
    assert tw.oracle_speaker(frames, spec) == 2


def test_oracle_speaker_empty_rejected():
    with pytest.raises(ContractError):
        tw.oracle_speaker(np.zeros((0, 16)), tw.WorldSpec())


def test_default_world_oracle_floor():
    # raw-frame self-consistency with default sigmas: PER < 1%, speaker >= 99%
    spec = tw.WorldSpec(seed=7)
    rng = np.random.default_rng(7)
    edits = refs = 0
    spk_hits = 0
    for _ in range(100):
        utt = tw.sample_utterance(spec, int(rng.integers(8)), tw.CLEAN, rng)
        hyp = tw.oracle_transcribe(utt.acoustic_frames, spec)
        edits += _edit_distance(utt.phonemes, hyp)
        refs += len(utt.phonemes)
        spk_hits += tw.oracle_speaker(utt.acoustic_frames, spec) == utt.speaker_id
    assert edits / refs < 0.01
    assert spk_hits >= 99


def test_noise_ordering_of_oracle_floor():
    spec = tw.WorldSpec(seed=8)
    rng = np.random.default_rng(8)

    def floor(condition):
        edits = refs = 0
        for _ in range(60):
            utt = tw.sample_utterance(spec, int(rng.integers(8)), condition, rng)
            edits += _edit_distance(utt.phonemes, tw.oracle_transcribe(utt.acoustic_frames, spec))
            refs += len(utt.phonemes)
        return edits / refs

    assert floor(tw.OTHER) >= floor(tw.CLEAN)


def test_build_corpus_speaker_holdout_and_sizes():
    spec = tw.WorldSpec(seed=9)
    corpus = tw.build_corpus(spec, n_train=30, n_test=8, rng=np.random.default_rng(9))
    assert tw.held_out_speakers(spec) == [6, 7]
    assert corpus.test_speakers == {6, 7}
    assert corpus.train_speakers.isdisjoint({6, 7})
    assert len(corpus.train) == 30
    assert len(corpus.test_clean) == 8
    assert len(corpus.test_other) == 8
    assert all(u.condition == tw.OTHER for u in corpus.test_other)


def test_build_corpus_determinism(tmp_path):
    spec = tw.WorldSpec(seed=10)
    c1 = tw.build_corpus(spec, 12, 4, np.random.default_rng(42))
    c2 = tw.build_corpus(spec, 12, 4, np.random.default_rng(42))
    tw.save_corpus(c1, tmp_path / "a")
    tw.save_corpus(c2, tmp_path / "b")
    for name in tw.SPLITS:
        assert (tmp_path / "a" / f"{name}.jsonl").read_bytes() == (
            tmp_path / "b" / f"{name}.jsonl"
        ).read_bytes()


def test_build_corpus_rejects_empty_train():
    with pytest.raises(ContractError):
        tw.build_corpus(tw.WorldSpec(), 0, 4, np.random.default_rng(0))


def test_corpus_round_trip(tmp_path):
    spec = tw.WorldSpec(seed=11)
    corpus = tw.build_corpus(spec, 6, 4, np.random.default_rng(11))
    tw.save_corpus(corpus, tmp_path)
    loaded = tw.load_corpus(tmp_path)
    assert loaded.world_spec == spec
    for name in tw.SPLITS:
        for a, b in zip(corpus.split(name), loaded.split(name)):
            assert a.phonemes == b.phonemes
            assert a.speaker_id == b.speaker_id
            assert a.condition == b.condition
            np.testing.assert_array_equal(a.phonetic_frames, b.phonetic_frames)
            np.testing.assert_array_equal(a.acoustic_frames, b.acoustic_frames)
            np.testing.assert_array_equal(a.alignment, b.alignment)


def _saved_corpus(path):
    tw.save_corpus(tw.build_corpus(tw.WorldSpec(seed=13), 4, 4, np.random.default_rng(13)), path)
    return path


def _edit_first_line(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = edit(lines[0])
    path.write_text("".join(lines))


def _edit_first_record(path, edit):
    def rewrite(line):
        d = json.loads(line)
        edit(d)
        return json.dumps(d) + "\n"
    _edit_first_line(path, rewrite)


def _drop_key(d):
    del d["speaker"]


def _not_base64(d):
    # a lenient decoder would drop the stray character and read the payload
    d["acoustic"] = "!" + d["acoustic"]


def _short_payload(d):
    d["phonetic_shape"][0] += 1


def _edit_spec(root, **fields):
    path = root / "world.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def _narrow_frames(d):
    # a consistent payload, 8 wide in the 16-dim world
    rows, cols = d["phonetic_shape"]
    d["phonetic"] = tw._encode_matrix(tw._decode_matrix(d["phonetic"], rows, cols)[:, :8])
    d["phonetic_shape"] = [rows, 8]


def _drop_acoustic_row(d):
    rows, cols = d["acoustic_shape"]
    d["acoustic"] = tw._encode_matrix(tw._decode_matrix(d["acoustic"], rows, cols)[:-1])
    d["acoustic_shape"] = [rows - 1, cols]


def _set(key, value):
    return lambda d: d.update({key: value})


@pytest.mark.parametrize("corrupt, named", [
    (lambda root: (root / "test_other.jsonl").unlink(), "test_other.jsonl"),
    (lambda root: _edit_first_line(root / "train.jsonl", lambda line: line[: len(line) // 2] + "\n"),
     "train.jsonl:1:"),
    (lambda root: _edit_first_record(root / "test_clean.jsonl", _drop_key), "test_clean.jsonl:1:"),
    (lambda root: _edit_first_record(root / "train.jsonl", _not_base64), "train.jsonl:1:"),
    (lambda root: _edit_first_record(root / "train.jsonl", _short_payload), "train.jsonl:1:"),
    (lambda root: _edit_spec(root, acoustic_rate_per_slot=4), "world.json"),
    (lambda root: _edit_spec(root, no_such_field=1), "world.json"),
    (lambda root: _edit_spec(root, seed=-1), "world.json: WorldSpec.seed must be an int >= 0"),
    (lambda root: _edit_first_record(root / "train.jsonl", lambda d: d["phonemes"].__setitem__(0, 99)),
     r"train.jsonl:1: .*phoneme id 99 outside \[0, 32\)"),
    (lambda root: _edit_first_record(root / "test_clean.jsonl", _narrow_frames),
     "test_clean.jsonl:1: .*phonetic frames 8 wide in a 16-dim world"),
    (lambda root: _edit_first_record(root / "train.jsonl", _drop_acoustic_row),
     "train.jsonl:1: .*acoustic frames for .* phonetic frames, not 3 per 2"),
    (lambda root: _edit_first_record(root / "train.jsonl", _set("speaker", 77)),
     r"train.jsonl:1: .*speaker 77 outside \[0, 8\)"),
    (lambda root: _edit_first_record(root / "test_other.jsonl", _set("condition", "noisy")),
     "test_other.jsonl:1: .*condition 'noisy'"),
    (lambda root: _edit_first_record(root / "train.jsonl", lambda d: d["alignment"].pop()),
     "train.jsonl:1: .*alignment"),
    (lambda root: _edit_first_record(root / "train.jsonl", lambda d: d["alignment"].__setitem__(-1, 50)),
     "train.jsonl:1: .*alignment"),
], ids=["missing_split", "bad_json_line", "missing_key", "not_base64", "payload_shape_mismatch",
        "spec_rejected", "spec_unknown_field", "spec_negative_seed", "phoneme_outside_vocab",
        "frames_narrower_than_world", "acoustic_row_short", "speaker_outside_world", "unknown_condition",
        "alignment_short", "alignment_index_out_of_range"])
def test_load_corpus_rejects_malformed_files(tmp_path, corrupt, named):
    root = _saved_corpus(tmp_path)
    tw.load_corpus(root)
    corrupt(root)
    with pytest.raises(tw.CorpusError, match=named):
        tw.load_corpus(root)
