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
    # craft a split where one speaker appears once, next to the held-out speaker's utterances
    # (the tiny world holds out one speaker, so the lone one is taken from the train pool)
    lone = tw.sample_utterance(
        tiny_corpus.world_spec, tiny_corpus.train[0].speaker_id, tw.CLEAN,
        np.random.default_rng(0),
    )
    crafted = dataclasses.replace(tiny_corpus, test_clean=[lone] + tiny_corpus.test_clean)
    with caplog.at_level("WARNING"):
        metrics = ev.evaluate_system(eval_bundles, crafted, "test_clean", 10, seed=4)
    assert metrics.skipped == 1
    assert metrics.n == len(tiny_corpus.test_clean)
    assert "skipping 1 utterance(s)" in caplog.text


def test_evaluate_rejects_a_split_with_nothing_to_score(eval_bundles, tiny_corpus, tiny_quantizers):
    # the held-out pool is one speaker, so a one-utterance split has no prompt partner
    lone = dataclasses.replace(tiny_corpus, test_clean=tiny_corpus.test_clean[:1], test_other=[])
    with pytest.raises(ContractError, match="nothing to score in test_clean"):
        ev.evaluate_system(eval_bundles, lone, "test_clean", 4, seed=0)
    with pytest.raises(ContractError, match="nothing to score in test_other"):
        ev.evaluate_passthrough(lone, tiny_quantizers, "test_other", 4, seed=0)
    with pytest.raises(ContractError, match="n_prompts must be >= 1"):
        ev.evaluate_passthrough(tiny_corpus, tiny_quantizers, "test_clean", 0, seed=0)


def _report(system, seed, per, speaker, runaway, split="test_clean"):
    report = ev.EvalReport(system=system, seed=seed)
    report.splits[split] = ev.SplitMetrics(4, per, 0, 0, per, speaker, runaway)
    return report


def _two_seeds(system, per, speaker, runaway):
    return [_report(system, seed, per, speaker, runaway) for seed in (1, 2)]


def _written(out_dir):
    return json.loads((out_dir / "report.json").read_text()), (out_dir / "report.txt").read_text()


def test_aggregate_seed_reports(tmp_path):
    ev.write_report([_report("proposed", 1, 0.2, 0.5, 0.0), _report("proposed", 2, 0.4, 0.5, 0.0)], tmp_path)
    report, _ = _written(tmp_path)
    [clean] = report["rows"]
    assert abs(clean["per_mean"] - 0.3) < 1e-12
    assert abs(clean["per_std"] - np.std([0.2, 0.4], ddof=1)) < 1e-12
    assert [r["seed"] for r in report["per_seed"]] == [1, 2]


def test_compare_requires_a_system_and_stars_none_for_one(tmp_path):
    with pytest.raises(ContractError):
        ev.write_report([], tmp_path)
    text = ev.write_report(_two_seeds("proposed", 0.1, 0.9, 0.0), tmp_path)
    report, written = _written(tmp_path)
    assert report["systems"] == ["proposed"]
    assert set(report["winners"]["test_clean"].values()) == {None}
    assert written == text + "\n"
    assert not any("*" in row for row in text.splitlines()[2:-1])


def test_compare_identical_reports_no_winner(tmp_path):
    ev.write_report(_two_seeds("proposed", 0.1, 0.8, 0.0) + _two_seeds("baseline", 0.1, 0.8, 0.0), tmp_path)
    report, _ = _written(tmp_path)
    assert report["winners"]["test_clean"]["per"] is None
    assert report["winners"]["test_clean"]["speaker_consistency"] is None


def test_compare_marks_better_system_per_metric(tmp_path):
    text = ev.write_report(_two_seeds("proposed", 0.1, 0.9, 0.0) + _two_seeds("baseline", 0.3, 0.4, 0.2), tmp_path)
    report, _ = _written(tmp_path)
    w = report["winners"]["test_clean"]
    assert w == {"per": "proposed", "speaker_consistency": "proposed", "runaway_rate": "proposed"}
    assert "proposed" in text and "*" in text


def test_compare_rejects_mismatched_splits(tmp_path):
    other = _report("baseline", 1, 0.3, 0.4, 0.2, split="test_other")
    with pytest.raises(ContractError):
        ev.write_report(_two_seeds("proposed", 0.1, 0.9, 0.0) + [other], tmp_path)
    assert not (tmp_path / "report.json").exists()


def test_write_report_deterministic_bytes(tmp_path):
    reports = _two_seeds("proposed", 0.1, 0.9, 0.0) + _two_seeds("baseline", 0.3, 0.4, 0.2)
    ev.write_report(reports, tmp_path / "r1")
    ev.write_report(reports, tmp_path / "r2")
    assert (tmp_path / "r1" / "report.json").read_bytes() == (tmp_path / "r2" / "report.json").read_bytes()
    report, _ = _written(tmp_path / "r1")
    assert report["winners"]["test_clean"]["per"] == "proposed"


def test_write_report_bytes_do_not_depend_on_report_order(tmp_path):
    reports = [
        _report(system, seed, 0.1 * seed + (system == "baseline"), 0.3 + 0.1 * seed, 0.05 * seed)
        for system in ("proposed", "baseline") for seed in (4, 5, 6)
    ]
    ev.write_report(reports, tmp_path / "given")
    shuffled = [reports[i] for i in np.random.default_rng(0).permutation(len(reports))]
    assert shuffled != reports
    ev.write_report(shuffled, tmp_path / "shuffled")
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "given" / name).read_bytes() == (tmp_path / "shuffled" / name).read_bytes()
    report, _ = _written(tmp_path / "given")
    assert report["systems"] == ["baseline", "proposed"]
    assert [(r["system"], r["seed"]) for r in report["per_seed"]] == [
        ("proposed", 4), ("proposed", 5), ("proposed", 6), ("baseline", 4), ("baseline", 5), ("baseline", 6)]
