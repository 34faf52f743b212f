"""Tests of the benchmark itself: a reduced-size run of every workload goes
through the same code path and checks as the real one, and every output
check is shown to fail on a deliberately corrupted output.

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from phonolm import numerics as nm  # noqa: E402
from phonolm import pipeline as pl  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def done(tmp_path_factory):
    """name -> (workload, last round) of a reduced-size untraced run."""
    out = {}
    for name, cls in wl.WORKLOADS.items():
        workload = cls(tmp_path_factory.mktemp(name), wl.SMALL)
        workload.setup()
        capture = wl.Capture()
        with capture.installed():
            out[name] = (workload, workload.round(capture))
    return out


def _with_outputs(last, **outputs):
    return replace(last, outputs={**last.outputs, **outputs})


# ---------------------------------------------------------------------------
# the benchmark's contract
# ---------------------------------------------------------------------------


def test_benchmark_json_names_the_workloads_and_bounds():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_run_is_correct_and_complete(name, trace, tmp_path):
    result, lines, tracer = run.run(name, 0, trace, tmp_path, wl.SMALL)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        rounds = [i for i, s in enumerate(tracer.spans) if s[3] is None and s[0] == "round"]
        for root in rounds:
            assert sum(tracer.self_times(root).values()) == pytest.approx(tracer.duration(root), abs=1e-9)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_layers_run_where_expected(tmp_path):
    result, _, _ = run.run("synth", 0, True, tmp_path, wl.SMALL)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("model.ar_logits_calls", "model.nar_logits_calls", "pipeline.synth_frames",
                 "quantizer.assign_frames", "tokenworld.load_corpus_calls", "checkpoint.bytes"):
        assert m[name] > 0, name
    assert m["model.positions_per_token"] > 1.0  # the AR loop recomputes the prefix
    assert m["numerics.backward_s"] == 0.0       # no training here


def test_missing_sources_exit_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "quantize", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# quantize checks fail on corrupted outputs
# ---------------------------------------------------------------------------


def test_quantize_passes_then_fails_on_swapped_centroid(done):
    workload, last = done["quantize"]
    assert workload.check(last) == []
    quant = copy.deepcopy(last.outputs["quant"])
    quant.phonetic.centroids[[0, 1]] = quant.phonetic.centroids[[1, 0]]
    assert any("phonetic tokens differ" in f for f in workload.check(_with_outputs(last, quant=quant)))


def test_quantize_fails_on_edited_code(done):
    workload, last = done["quantize"]
    tokenized = copy.deepcopy(last.outputs["tokenized"])
    codes = tokenized["test_other"][0].codes
    codes[0, 3] = (codes[0, 3] + 1) % 8
    assert any("RVQ frames differ" in f for f in workload.check(_with_outputs(last, tokenized=tokenized)))


def test_quantize_fails_on_rising_history_and_energy(done):
    workload, last = done["quantize"]
    quant = copy.deepcopy(last.outputs["quant"])
    quant.rvq.layers[2].distortion_history.append(quant.rvq.layers[2].distortion_history[-1] * 1.01)
    quant.rvq.residual_energy[-1] = quant.rvq.residual_energy[-2] * 1.01
    fails = workload.check(_with_outputs(last, quant=quant))
    assert any("distortion history increases" in f for f in fails)
    assert any("residual energies increase" in f for f in fails)


def test_quantize_fails_on_edited_reported_energy(done):
    workload, last = done["quantize"]
    quant, tokenized = last.outputs["quant"], last.outputs["tokenized"]
    reported = json.loads((last.outputs["out"] / "quantizers.json").read_text())
    reported["rvq"]["residual_energy"][-1] *= 1.0 + 1e-6
    assert any("residual energy" in f for f in checks.check_quantize(workload.corpus, quant, 30, tokenized, reported))


def test_quantize_fails_on_moved_converged_centroid(done):
    workload, last = done["quantize"]
    quant = copy.deepcopy(last.outputs["quant"])
    layer = next(j for j, b in enumerate(quant.rvq.layers) if b.iterations_run < 30)
    quant.rvq.layers[layer].centroids[0] += 1e-7  # too small to move any code
    tokenized = last.outputs["tokenized"]
    reported = json.loads((last.outputs["out"] / "quantizers.json").read_text())
    fails = checks.check_quantize(workload.corpus, quant, 30, tokenized, reported)
    assert any("not its members' mean" in f for f in fails), fails


# ---------------------------------------------------------------------------
# train checks fail on corrupted outputs
# ---------------------------------------------------------------------------


def test_train_passes_then_fails_on_bad_losses(done):
    workload, last = done["train"]
    assert workload.check(last) == []
    losses = copy.deepcopy(last.outputs["losses"])
    losses[pl.MODE_NAR][1] = float("nan")
    losses[pl.MODE_BASELINE_AR][0] += 1.0
    fails = workload.check(_with_outputs(last, losses=losses))
    assert any("nar: non-finite loss" in f for f in fails)
    assert any("baseline_ar: first loss" in f for f in fails)


def test_train_fails_on_wrong_gradient(done, monkeypatch):
    workload, last = done["train"]
    real = nm.backward

    def skewed(loss, tape):
        real(loss, tape)
        for out, inputs, _ in tape.records:
            for t in inputs:
                if t.requires_grad and t.grad is not None and t.grad.ndim == 2:
                    t.grad *= 1.001

    monkeypatch.setattr(nm, "backward", skewed)
    assert any("finite difference" in f for f in workload.check(last))


# ---------------------------------------------------------------------------
# synth checks fail on corrupted outputs
# ---------------------------------------------------------------------------


def _task(last, kind):
    return next(t for t in last.outputs["tasks"] if t["bundle"].kind == kind and t["results"])


def _corrupt(last, kind, edit):
    tasks = [dict(t) for t in last.outputs["tasks"]]
    task = next(t for t in tasks if t["bundle"].kind == kind and t["results"])
    task["results"] = [copy.deepcopy(r) for r in task["results"]]
    edit(task["results"][0], task["bundle"])
    return _with_outputs(last, tasks=tasks)


def test_synth_passes_then_fails_on_flipped_proposed_token(done):
    workload, last = done["synth"]
    assert workload.check(last) == []

    def flip(res, bundle):
        res.phonetic_tokens[0] = (res.phonetic_tokens[0] + 1) % bundle.quantizers.phonetic.k

    assert any("replayed token 0" in f for f in workload.check(_corrupt(last, pl.KIND_PROPOSED, flip)))


def test_synth_fails_on_flipped_baseline_code(done):
    workload, last = done["synth"]

    def flip(res, bundle):
        res.codes[-1, 0] = (res.codes[-1, 0] + 1) % bundle.quantizers.rvq.vocab

    fails = workload.check(_corrupt(last, pl.KIND_BASELINE, flip))
    assert any("baseline: replayed token" in f for f in fails)


def test_synth_fails_on_frame_count_and_range(done):
    workload, last = done["synth"]

    def drop_frame(res, bundle):
        res.codes = res.codes[:-1]

    def out_of_range(res, bundle):
        res.codes[0, 5] = bundle.quantizers.rvq.vocab

    assert any("frames for" in f for f in workload.check(_corrupt(last, pl.KIND_PROPOSED, drop_frame)))
    assert any("out of range" in f for f in workload.check(_corrupt(last, pl.KIND_PROPOSED, out_of_range)))


def test_synth_fails_on_edited_per(done):
    workload, last = done["synth"]
    report = json.loads((last.outputs["out"] / "report.json").read_text())
    report["per_seed"][0]["splits"]["test_clean"]["per"] += 0.01
    assert any("reported PER" in f for f in checks.check_synth(last.outputs["tasks"], report))


def test_references_agree_with_definitions():
    rng = np.random.default_rng(0)
    cents = rng.normal(size=(5, 3))
    cents[3] = cents[1]  # a tie: the first index must win
    ids, _ = checks.nearest(cents[[3, 1, 0]], cents)
    assert ids.tolist() == [1, 1, 0]
    assert checks.edit_distance([1, 2, 3], [1, 3, 4]) == 2
    assert checks.edit_distance([], [1, 2]) == 2
