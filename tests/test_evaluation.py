import dataclasses
import json

import numpy as np
import pytest

from phonolm import evaluation as ev
from phonolm import pipeline as pl
from phonolm import tokenworld as tw
from phonolm.numerics import ContractError


def recursive_distance(a, b):
    """Exhaustive recursion, the independent oracle for short sequences."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return recursive_distance(a[1:], b[1:])
    return 1 + min(
        recursive_distance(a[1:], b),
        recursive_distance(a, b[1:]),
        recursive_distance(a[1:], b[1:]),
    )


def test_levenshtein_identical():
    bd = ev.levenshtein([1, 2, 3], [1, 2, 3])
    assert bd.distance == 0
    assert (bd.substitutions, bd.deletions, bd.insertions) == (0, 0, 0)


def test_levenshtein_empty_hypothesis_is_all_deletions():
    bd = ev.levenshtein([5, 6, 7], [])
    assert bd.deletions == 3 and bd.distance == 3 and bd.ref_len == 3


def test_levenshtein_kitten_sitting():
    ref = [ord(c) for c in "kitten"]
    hyp = [ord(c) for c in "sitting"]
    bd = ev.levenshtein(ref, hyp)
    assert bd.distance == 3
    assert bd.distance == recursive_distance(ref, hyp)


def test_levenshtein_breakdown_sums_to_distance():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = list(rng.integers(0, 4, size=rng.integers(0, 9)))
        b = list(rng.integers(0, 4, size=rng.integers(0, 9)))
        bd = ev.levenshtein(a, b)
        assert bd.substitutions + bd.deletions + bd.insertions == bd.distance
        assert bd.distance == recursive_distance(a, b)


def test_levenshtein_swap_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = list(rng.integers(0, 3, size=rng.integers(0, 8)))
        b = list(rng.integers(0, 3, size=rng.integers(0, 8)))
        ab = ev.levenshtein(a, b)
        ba = ev.levenshtein(b, a)
        assert ab.distance == ba.distance
        assert (ab.deletions, ab.insertions) == (ba.insertions, ba.deletions)
        assert ab.substitutions == ba.substitutions


def test_levenshtein_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = (list(rng.integers(0, 3, size=rng.integers(0, 7))) for _ in range(3))
        dab = ev.levenshtein(a, b).distance
        dbc = ev.levenshtein(b, c).distance
        dac = ev.levenshtein(a, c).distance
        assert dac <= dab + dbc


def test_per_can_exceed_one():
    bd = ev.levenshtein([1], [2, 3, 4, 5])
    assert bd.rate > 1.0


@pytest.fixture(scope="module")
def eval_bundles(tiny_corpus, tiny_quantizers, tiny_model_config):
    cfg = pl.TrainingConfig(steps=40, batch_size=4, learning_rate=1e-3, seed=13)
    ar, _ = pl.train_mode(pl.MODE_PROPOSED_AR, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    nar, _ = pl.train_mode(pl.MODE_NAR, tiny_corpus, tiny_quantizers, cfg, tiny_model_config)
    prop = pl.SystemBundle(
        world_spec=tiny_corpus.world_spec, quantizers=tiny_quantizers,
        ar=ar, nar=nar, kind=pl.KIND_PROPOSED,
    )
    return prop


def test_passthrough_floor_matches_raw_encode(tiny_corpus, tiny_quantizers):
    from phonolm import quantizer as qz

    metrics = ev.evaluate_passthrough(tiny_corpus, tiny_quantizers, "test_clean", 6, seed=1)
    assert metrics.runaway_rate == 0.0
    # same computation done longhand over the full split
    edits = refs = 0
    for u in tiny_corpus.test_clean:
        frames = qz.rvq_decode(qz.rvq_encode(u.acoustic_frames, tiny_quantizers.rvq), tiny_quantizers.rvq)
        bd = ev.levenshtein(u.phonemes, tw.oracle_transcribe(frames, tiny_corpus.world_spec))
        edits += bd.distance
        refs += len(u.phonemes)
    assert metrics.per <= max(0.5, 2 * edits / refs) + 0.2


def test_passthrough_speaker_floor(tiny_corpus, tiny_quantizers):
    metrics = ev.evaluate_passthrough(tiny_corpus, tiny_quantizers, "test_clean", 6, seed=1)
    assert 0.0 <= metrics.speaker_consistency <= 1.0


def test_evaluate_system_structure_and_determinism(eval_bundles, tiny_corpus):
    m1 = ev.evaluate_system(eval_bundles, tiny_corpus, "test_clean", n_prompts=4, seed=3)
    m2 = ev.evaluate_system(eval_bundles, tiny_corpus, "test_clean", n_prompts=4, seed=3)
    assert m1 == m2
    assert m1.n == 4
    assert 0.0 <= m1.speaker_consistency <= 1.0
    assert m1.per >= 0.0


def test_evaluate_system_rejects_train_split(eval_bundles, tiny_corpus):
    with pytest.raises(ContractError):
        ev.evaluate_system(eval_bundles, tiny_corpus, "train", 2, seed=0)


def test_evaluate_system_rejects_a_corpus_from_another_world(eval_bundles, tiny_corpus):
    spec = dataclasses.replace(tiny_corpus.world_spec, seed=99)
    other = dataclasses.replace(tiny_corpus, world_spec=spec)
    with pytest.raises(ContractError, match=r"corpus world \(seed 99\) is not the bundle's world \(seed 1234\)"):
        ev.evaluate_system(eval_bundles, other, "test_clean", 2, seed=0)


def test_evaluate_skips_single_utterance_speakers(eval_bundles, tiny_corpus, caplog):
    # craft a split where one speaker appears once
    utts = [u for u in tiny_corpus.test_clean][:3]
    lone = tw.sample_utterance(
        tiny_corpus.world_spec, tiny_corpus.test_clean[0].speaker_id, tw.CLEAN,
        np.random.default_rng(0),
    )
    crafted = tw.Corpus(
        train=tiny_corpus.train,
        test_clean=[lone] + [u for u in tiny_corpus.test_clean if u.speaker_id != lone.speaker_id],
        test_other=tiny_corpus.test_other,
        world_spec=tiny_corpus.world_spec,
    )
    with caplog.at_level("WARNING"):
        metrics = ev.evaluate_system(eval_bundles, crafted, "test_clean", 10, seed=4)
    assert metrics.skipped == 1


def test_aggregate_seed_reports():
    def rep(seed, per):
        r = ev.EvalReport(system="proposed", seed=seed)
        r.splits["test_clean"] = ev.SplitMetrics(4, per, 0, 0, per, 0.5, 0.0)
        return r

    agg = ev.aggregate_seed_reports([rep(1, 0.2), rep(2, 0.4)])
    clean = agg["splits"]["test_clean"]
    assert abs(clean["mean"]["per"] - 0.3) < 1e-12
    assert abs(clean["std"]["per"] - np.std([0.2, 0.4], ddof=1)) < 1e-12
    assert agg["seeds"] == [1, 2]


def test_compare_requires_a_system_and_stars_none_for_one():
    with pytest.raises(ContractError):
        ev.compare_systems([])
    cmp = ev.compare_systems([_fake_aggregate("proposed", 0.1, 0.9, 0.0)])
    assert cmp["systems"] == ["proposed"]
    assert set(cmp["winners"]["test_clean"].values()) == {None}
    assert not any("*" in row for row in cmp["text"].splitlines()[2:-1])


def _fake_aggregate(system, per, speaker, runaway):
    return {
        "system": system,
        "seeds": [1, 2],
        "splits": {
            "test_clean": {
                "mean": {"per": per, "speaker_consistency": speaker, "runaway_rate": runaway},
                "std": {"per": 0.0, "speaker_consistency": 0.0, "runaway_rate": 0.0},
                "n_seeds": 2,
            }
        },
    }


def test_compare_identical_reports_no_winner():
    a = _fake_aggregate("proposed", 0.1, 0.8, 0.0)
    b = _fake_aggregate("baseline", 0.1, 0.8, 0.0)
    cmp = ev.compare_systems([a, b])
    assert cmp["winners"]["test_clean"]["per"] is None
    assert cmp["winners"]["test_clean"]["speaker_consistency"] is None


def test_compare_marks_better_system_per_metric():
    a = _fake_aggregate("proposed", 0.1, 0.9, 0.0)
    b = _fake_aggregate("baseline", 0.3, 0.4, 0.2)
    cmp = ev.compare_systems([a, b])
    w = cmp["winners"]["test_clean"]
    assert w == {"per": "proposed", "speaker_consistency": "proposed", "runaway_rate": "proposed"}
    assert "proposed" in cmp["text"] and "*" in cmp["text"]


def test_compare_rejects_mismatched_splits():
    a = _fake_aggregate("proposed", 0.1, 0.9, 0.0)
    b = _fake_aggregate("baseline", 0.3, 0.4, 0.2)
    b["splits"] = {"test_other": b["splits"]["test_clean"]}
    with pytest.raises(ContractError):
        ev.compare_systems([a, b])


def test_write_report_deterministic_bytes(tmp_path):
    a = _fake_aggregate("proposed", 0.1, 0.9, 0.0)
    b = _fake_aggregate("baseline", 0.3, 0.4, 0.2)
    cmp = ev.compare_systems([a, b])
    ev.write_report(cmp, tmp_path / "r1")
    ev.write_report(cmp, tmp_path / "r2")
    assert (tmp_path / "r1" / "report.json").read_bytes() == (tmp_path / "r2" / "report.json").read_bytes()
    parsed = json.loads((tmp_path / "r1" / "report.json").read_text())
    assert parsed["winners"]["test_clean"]["per"] == "proposed"
