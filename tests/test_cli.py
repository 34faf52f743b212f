import json
import resource
import shutil
from pathlib import Path

import numpy as np
import pytest

from phonolm.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small end-to-end run directory: corpus, quantizers, all four stages."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "world_spec.json"
    spec.write_text(json.dumps({
        "phoneme_vocab_size": 12, "num_speakers": 4, "feature_dim": 8,
        "utterance_len_min": 4, "utterance_len_max": 6,
    }))
    tcfg = root / "train.json"
    tcfg.write_text(json.dumps({"steps": 12, "batch_size": 2, "learning_rate": 1e-3}))
    mcfg = root / "model.json"
    mcfg.write_text(json.dumps({
        "n_layers": 2, "n_heads": 2, "d_model": 32, "d_ff": 64, "max_sequence_len": 160,
    }))
    assert run("world", "--spec", spec, "--out", root / "world",
               "--n-train", 16, "--n-test", 6, "--seed", 3) == 0
    assert run("quantize", "--corpus", root / "world", "--k-phonetic", 16,
               "--k-codec", 8, "--layers", 4, "--iters", 15, "--seed", 3,
               "--out", root / "quant") == 0
    for mode, out in [("proposed_ar", "prop"), ("nar", "prop"),
                      ("baseline_ar", "base"), ("baseline_nar", "base")]:
        assert run("train", "--mode", mode, "--corpus", root / "world",
                   "--quantizers", root / "quant" / "quantizers.ckpt",
                   "--config", tcfg, "--model-config", mcfg, "--seed", 5,
                   "--out", root / out, "--force") == 0
    return root


def test_world_determinism(tmp_path, workspace):
    spec = workspace / "world_spec.json"
    for name in ("w1", "w2"):
        assert run("world", "--spec", spec, "--out", tmp_path / name,
                   "--n-train", 8, "--n-test", 4, "--seed", 9) == 0
    for f in ("train.jsonl", "test_clean.jsonl", "test_other.jsonl", "world.json"):
        assert (tmp_path / "w1" / f).read_bytes() == (tmp_path / "w2" / f).read_bytes()


def test_world_rejects_zero_train(tmp_path, workspace):
    assert run("world", "--out", tmp_path / "w", "--n-train", 0, "--n-test", 2) == 2


def test_world_refuses_nonempty_dir_without_force(tmp_path, workspace):
    target = tmp_path / "w"
    target.mkdir()
    (target / "junk.txt").write_text("hello")
    assert run("world", "--out", target, "--n-train", 4, "--n-test", 2) == 2
    assert run("world", "--out", target, "--n-train", 4, "--n-test", 2, "--force") == 0


def test_world_manifest_written(workspace):
    manifest = json.loads((workspace / "world" / "manifest.json").read_text())
    assert manifest["subcommand"] == "world"
    assert manifest["seeds"]["seed"] == 3
    assert "train.jsonl" in manifest["outputs"]
    assert manifest["diagnostics"]["raw_frame_oracle_per"] < 0.01


def test_manifest_records_environment_outside_config_hash(tmp_path, monkeypatch):
    hashes = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / f"w{threads}"
        assert main(["world", "--out", str(out), "--seed", "3", "--n-train", "4", "--n-test", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        env = manifest["environment"]
        assert env["numpy"] == np.__version__
        assert env["OPENBLAS_NUM_THREADS"] == threads
        assert env["MKL_NUM_THREADS"] is None
        assert "OMP_NUM_THREADS" in env
        hashes.append(manifest["config_hash"])
    assert hashes[0] == hashes[1]


def test_manifest_records_resources_outside_config_hash(tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["world", "--out", str(out), "--seed", "3", "--n-train", "4", "--n-test", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        res = manifest["resources"]
        assert set(res) == {"wall_s", "peak_rss_mb"}
        assert 0.0 <= res["wall_s"] < 60.0
        # the process peak so far, which this process can only have raised since
        assert 0.0 < res["peak_rss_mb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 0.1
        hashes.append(manifest["config_hash"])
    assert hashes[0] == hashes[1]


def test_malformed_corpus_exits_with_validation_code(tmp_path, workspace):
    corpus = tmp_path / "world"
    shutil.copytree(workspace / "world", corpus)
    for name in ("train.jsonl", "test_clean.jsonl"):
        path = corpus / name
        path.write_text(path.read_text()[:100] + "\n")
    assert run("quantize", "--corpus", corpus, "--out", tmp_path / "q") == 2
    assert run("eval", "--bundle", workspace / "prop", "--corpus", corpus, "--splits", "clean",
               "--n-prompts", 2, "--out", tmp_path / "e") == 2


def test_quantize_rejects_k_above_frames(tmp_path, workspace):
    assert run("quantize", "--corpus", workspace / "world", "--k-phonetic", 10**6,
               "--out", tmp_path / "q") == 2


def test_quantize_determinism(tmp_path, workspace):
    for name in ("q1", "q2"):
        assert run("quantize", "--corpus", workspace / "world", "--k-phonetic", 16,
                   "--k-codec", 8, "--layers", 4, "--iters", 15, "--seed", 3,
                   "--out", tmp_path / name) == 0
    assert (tmp_path / "q1" / "quantizers.ckpt").read_bytes() == (
        tmp_path / "q2" / "quantizers.ckpt"
    ).read_bytes()


def test_quantize_accepts_paper_scale_flags(tmp_path, workspace):
    # paper-scale cluster sizes are legal flags; this corpus is too small,
    # so the validation error must name the limit rather than crash
    rc = run("quantize", "--corpus", workspace / "world", "--k-phonetic", 1024,
             "--k-codec", 8, "--out", tmp_path / "q")
    assert rc == 2


def test_train_missing_quantizers_names_path(tmp_path, workspace, capsys):
    rc = run("train", "--mode", "proposed_ar", "--corpus", workspace / "world",
             "--quantizers", tmp_path / "nope.ckpt", "--out", tmp_path / "t")
    assert rc == 2
    assert "nope.ckpt" in capsys.readouterr().err


def test_train_writes_losses_and_bundle_files(workspace):
    prop = workspace / "prop"
    assert (prop / "ar.ckpt").exists()
    assert (prop / "nar.ckpt").exists()
    assert (prop / "quantizers.ckpt").exists()
    lines = (prop / "losses_proposed_ar.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 13
    meta = json.loads((prop / "proposed_bundle.json").read_text())
    assert meta["kind"] == "proposed"
    assert meta["provenance"]["training"]["steps"] == 12


def test_train_set_override(tmp_path, workspace):
    rc = run("train", "--mode", "proposed_ar", "--corpus", workspace / "world",
             "--quantizers", workspace / "quant" / "quantizers.ckpt",
             "--config", workspace / "train.json", "--model-config", workspace / "model.json",
             "--set", "steps=3", "--seed", 1, "--out", tmp_path / "t")
    assert rc == 0
    lines = (tmp_path / "t" / "losses_proposed_ar.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_eval_compares_two_systems(tmp_path, workspace):
    out = tmp_path / "report"
    rc = run("eval", "--bundle", workspace / "prop", "--bundle", workspace / "base",
             "--corpus", workspace / "world", "--splits", "clean,other",
             "--n-prompts", 3, "--seeds", 1, "--seed", 11, "--out", out)
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["systems"]) == ["baseline", "proposed"]
    assert report["splits"] == ["test_clean", "test_other"]
    assert len(report["rows"]) == 4
    assert (out / "report.txt").read_text().count("test_clean") == 2


def test_eval_single_split_flag(tmp_path, workspace):
    out = tmp_path / "r_other"
    rc = run("eval", "--bundle", workspace / "prop", "--corpus", workspace / "world",
             "--splits", "other", "--n-prompts", 2, "--seed", 1, "--out", out)
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["aggregate"]["splits"]) == ["test_other"]


def test_eval_incomplete_bundle_lists_missing(tmp_path, workspace, capsys):
    empty = tmp_path / "empty_bundle"
    empty.mkdir()
    rc = run("eval", "--bundle", empty, "--corpus", workspace / "world",
             "--out", tmp_path / "r")
    assert rc == 2
    assert "ar.ckpt" in capsys.readouterr().err


def test_eval_jobs_matches_serial(tmp_path, workspace):
    kwargs = ["--bundle", workspace / "prop", "--corpus", workspace / "world",
              "--splits", "clean", "--n-prompts", 3, "--seed", 21]
    assert run("eval", *kwargs, "--jobs", 1, "--out", tmp_path / "serial") == 0
    assert run("eval", *kwargs, "--jobs", 2, "--out", tmp_path / "parallel") == 0
    a = json.loads((tmp_path / "serial" / "report.json").read_text())
    b = json.loads((tmp_path / "parallel" / "report.json").read_text())
    assert a["aggregate"] == b["aggregate"]


def test_synth_writes_jsonl(tmp_path, workspace):
    out_file = tmp_path / "synth.jsonl"
    rc = run("synth", "--bundle", workspace / "prop", "--corpus", workspace / "world",
             "--split", "clean", "--index", 0, "--prompt-index", 1,
             "--seed", 4, "--out", out_file)
    assert rc == 0
    record = json.loads(out_file.read_text().strip())
    assert record["system"] == "proposed"
    assert record["index"] == 0
    assert isinstance(record["codes"], list)


def test_synth_rejects_same_prompt_and_target(tmp_path, workspace):
    rc = run("synth", "--bundle", workspace / "prop", "--corpus", workspace / "world",
             "--index", 0, "--prompt-index", 0, "--out", tmp_path / "x.jsonl")
    assert rc == 2


def test_env_seed_fallback(tmp_path, workspace, monkeypatch):
    monkeypatch.setenv("PHONOLM_SEED", "9")
    spec = workspace / "world_spec.json"
    assert run("world", "--spec", spec, "--out", tmp_path / "we",
               "--n-train", 6, "--n-test", 4) == 0
    manifest = json.loads((tmp_path / "we" / "manifest.json").read_text())
    assert manifest["seeds"]["seed"] == 9
