import builtins
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from phonolm import checkpoint, cli
from phonolm import pipeline as pl
from phonolm import tokenworld as tw
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


def _exits_in_the_parser(capsys, *argv) -> str:
    """Run argv, which the parser must reject; return what it printed."""
    with pytest.raises(SystemExit) as exited:
        run(*argv)
    assert exited.value.code == 2
    return capsys.readouterr().err


def test_world_rejects_zero_train(tmp_path, workspace, capsys):
    out = tmp_path / "w"
    err = _exits_in_the_parser(capsys, "world", "--out", out, "--n-train", 0, "--n-test", 2)
    assert "argument --n-train: must be >= 1, got 0" in err
    assert not out.exists()


def test_world_rejects_negative_test_count(tmp_path, workspace, capsys):
    out = tmp_path / "w"
    err = _exits_in_the_parser(capsys, "world", "--out", out, "--n-train", 4, "--n-test", -1)
    assert "argument --n-test: must be >= 0, got -1" in err
    assert not out.exists()


@pytest.mark.parametrize("spec_seed, flag, want", [(None, None, 0), (5, None, 5), (5, 2, 2)])
def test_world_seed_is_the_flag_then_the_spec_seed_then_zero(tmp_path, spec_seed, flag, want):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({} if spec_seed is None else {"seed": spec_seed}))
    out = tmp_path / "w"
    assert run("world", "--spec", spec, "--out", out, "--n-train", 4, "--n-test", 4,
               *([] if flag is None else ["--seed", flag])) == 0
    assert json.loads((out / "world.json").read_text())["seed"] == want
    assert json.loads((out / "manifest.json").read_text())["params"]["world_spec"]["seed"] == want


def test_world_set_seed_draws_the_corpus_from_that_seed(tmp_path):
    assert run("world", "--out", tmp_path / "set", "--n-train", 4, "--n-test", 4, "--set", "seed=5") == 0
    assert run("world", "--out", tmp_path / "flag", "--n-train", 4, "--n-test", 4, "--seed", 5) == 0
    assert json.loads((tmp_path / "set" / "world.json").read_text())["seed"] == 5
    for f in ("world.json", *(f"{s}.jsonl" for s in tw.SPLITS)):
        assert (tmp_path / "set" / f).read_bytes() == (tmp_path / "flag" / f).read_bytes()


def test_world_refuses_nonempty_dir_without_force(tmp_path, workspace):
    target = tmp_path / "w"
    target.mkdir()
    (target / "junk.txt").write_text("hello")
    assert run("world", "--out", target, "--n-train", 4, "--n-test", 2) == 2
    assert run("world", "--out", target, "--n-train", 4, "--n-test", 2, "--force") == 0


def test_world_manifest_written(workspace):
    manifest = json.loads((workspace / "world" / "manifest.json").read_text())
    assert manifest["subcommand"] == "world"
    assert manifest["params"]["world_spec"]["seed"] == 3
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
        assert set(res) == {"wall_s", "minor_faults", "peak_rss_mb"}
        assert 0.0 <= res["wall_s"] < 60.0
        # the process peak so far, which this process can only have raised since
        assert 0.0 < res["peak_rss_mb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 0.1
        hashes.append(manifest["config_hash"])
    assert hashes[0] == hashes[1]


def test_manifest_records_minor_faults_and_malloc_policy_outside_config_hash(tmp_path):
    manifests = []
    for name in ("a", "b"):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(["world", "--out", str(tmp_path / name), "--seed", "3", "--n-train", "4", "--n-test", "2"]) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
        # the subcommand's own faults, not the process's since it started
        assert 0 <= manifests[-1]["resources"]["minor_faults"] <= faults
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
    assert manifests[0]["environment"]["malloc"] == cli.keep_freed_pages()


_GLIBC = bool(getattr(os, "confstr", None) and "CS_GNU_LIBC_VERSION" in os.confstr_names
              and os.confstr("CS_GNU_LIBC_VERSION"))


@pytest.mark.skipif(not _GLIBC, reason="the malloc policy applies to glibc only")
def test_keep_freed_pages_applies_its_three_settings_and_can_be_repeated():
    want = {"M_MMAP_THRESHOLD": 32 << 20, "M_TRIM_THRESHOLD": 256 << 20, "M_ARENA_MAX": 1}
    assert cli.keep_freed_pages() == want
    assert cli.keep_freed_pages() == want


def test_without_mallopt_the_policy_is_skipped_and_commands_run(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())  # a C library with no mallopt
    assert cli.keep_freed_pages() is None
    assert main(["world", "--out", str(tmp_path / "w"), "--seed", "3", "--n-train", "4", "--n-test", "2"]) == 0
    assert json.loads((tmp_path / "w" / "manifest.json").read_text())["environment"]["malloc"] is None


def _no_such_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [None, lambda name: None, lambda name: "", _no_such_name],
                         ids=["no-confstr", "undefined", "empty", "unknown-name"])
def test_keep_freed_pages_skips_a_libc_it_cannot_name_glibc(monkeypatch, confstr):
    opened = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name))
    if confstr is None:
        monkeypatch.delattr(cli.os, "confstr")
    else:
        monkeypatch.setattr(cli.os, "confstr", confstr)
    assert cli.keep_freed_pages() is None
    assert opened == []  # the C library is never opened


@pytest.mark.parametrize("accepted, want", [
    ({-3}, {"M_MMAP_THRESHOLD": 32 << 20}),
    (set(), None),
], ids=["trim-refused", "mmap-refused"])
def test_keep_freed_pages_stops_at_the_first_value_mallopt_refuses(monkeypatch, accepted, want):
    calls = []

    def mallopt(param, value):
        calls.append(param)
        return int(param in accepted)

    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert cli.keep_freed_pages() == want
    assert calls == [-3, -1][: len(accepted) + 1]


_TRAIN_WITHOUT_THE_CLI = """
import json, sys
from dataclasses import asdict
from pathlib import Path
from phonolm import model as md, pipeline as pl, quantizer as qz, tokenworld as tw
ws, out = Path(sys.argv[1]), Path(sys.argv[2])
corpus = tw.load_corpus(ws / "world")
quant = qz.load_quantizers(ws / "quant" / "quantizers.ckpt")
base = asdict(pl.default_model_config(corpus.world_spec, quant))
base.update(json.loads((ws / "model.json").read_text()))
config = pl.TrainingConfig(**json.loads((ws / "train.json").read_text()), seed=5)
model, _ = pl.train_mode("nar", corpus, quant, config, md.ModelConfig(**base))
model.save(out / pl.MODES["nar"].checkpoint)
"""


def test_train_writes_the_same_checkpoint_with_and_without_the_malloc_policy(tmp_path, workspace):
    # both in fresh interpreters: allocator state left by other tests cannot reach either side
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    on, off = tmp_path / "on", tmp_path / "off"
    off.mkdir()
    subprocess.run([sys.executable, "-m", "phonolm.cli", *map(str, _train_argv(workspace, on, "nar")),
                    "--config", str(workspace / "train.json"), "--seed", "5"],
                   env=env, check=True, capture_output=True, timeout=300)
    subprocess.run([sys.executable, "-c", _TRAIN_WITHOUT_THE_CLI, str(workspace), str(off)],
                   env=env, check=True, capture_output=True, timeout=300)
    name = pl.MODES["nar"].checkpoint
    assert (on / name).read_bytes() == (off / name).read_bytes()
    if _GLIBC:
        assert json.loads((on / "manifest_nar.json").read_text())["environment"]["malloc"] is not None


def test_malformed_corpus_exits_with_validation_code(tmp_path, workspace):
    corpus = tmp_path / "world"
    shutil.copytree(workspace / "world", corpus)
    for name in ("train.jsonl", "test_clean.jsonl"):
        path = corpus / name
        path.write_text(path.read_text()[:100] + "\n")
    assert run("quantize", "--corpus", corpus, "--out", tmp_path / "q") == 2
    assert run("eval", "--bundle", workspace / "prop", "--corpus", corpus, "--splits", "clean",
               "--n-prompts", 2, "--out", tmp_path / "e") == 2


def test_missing_corpus_exits_with_validation_code_naming_world_json(tmp_path, workspace, capsys):
    nowhere = tmp_path / "no_corpus"
    argvs = {
        "q": ["quantize", "--corpus", nowhere],
        "t": ["train", "--mode", "proposed_ar", "--corpus", nowhere,
              "--quantizers", workspace / "quant" / "quantizers.ckpt"],
        "e": ["eval", "--bundle", workspace / "prop", "--corpus", nowhere],
    }
    for out, argv in argvs.items():
        assert run(*argv, "--out", tmp_path / out) == 2
        assert "world.json" in capsys.readouterr().err
        assert not (tmp_path / out).exists()


@pytest.mark.parametrize("flag, frames", [("--k-phonetic", "phonetic"), ("--k-codec", "acoustic")])
def test_quantize_rejects_k_above_frames(tmp_path, workspace, capsys, flag, frames):
    out = tmp_path / "q"
    assert run("quantize", "--corpus", workspace / "world", flag, 10**6, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{flag} 1000000 exceeds the" in err and f"train {frames} frames" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, least", [
    ("--k-phonetic", 0, 1), ("--k-codec", 0, 1), ("--k-codec", -3, 1), ("--layers", 0, 1), ("--iters", -1, 0),
])
def test_quantize_rejects_counts_below_their_least(tmp_path, workspace, capsys, flag, value, least):
    out = tmp_path / "q"
    err = _exits_in_the_parser(capsys, "quantize", "--corpus", workspace / "world", flag, value, "--out", out)
    assert f"argument {flag}: must be >= {least}, got {value}" in err
    assert not out.exists()


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


def test_a_baseline_nar_on_a_one_layer_codec_exits_with_validation_code(tmp_path, workspace, capsys):
    assert run("quantize", "--corpus", workspace / "world", "--k-phonetic", 16, "--k-codec", 8,
               "--layers", 1, "--iters", 2, "--out", tmp_path / "q") == 0
    out = tmp_path / "t"
    argv = _train_argv(workspace, out, "baseline_nar")
    argv[argv.index("--quantizers") + 1] = tmp_path / "q" / "quantizers.ckpt"
    assert run(*argv) == 2
    assert "n_codec_layers >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


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
    assert json.loads((prop / "ar.json").read_text())["training"]["steps"] == 12


def test_each_stage_keeps_its_own_training_record(tmp_path, workspace):
    out = tmp_path / "bundle"
    for mode, steps in (("proposed_ar", 3), ("nar", 1)):
        assert run(*_train_argv(workspace, out, mode), "--set", f"steps={steps}") == 0
    assert json.loads((out / "ar.json").read_text())["training"]["steps"] == 3
    assert json.loads((out / "nar.json").read_text())["training"]["steps"] == 1
    assert not (out / "config.json").exists()
    assert set(json.loads((out / "proposed_bundle.json").read_text())) == {"kind", "world_spec"}


def test_a_bundle_in_the_older_format_loads_and_scores_the_same(tmp_path, workspace):
    """Older bundles kept the training record in `provenance` and config.json, not in the sidecars."""
    old = tmp_path / "old"
    shutil.copytree(workspace / "prop", old)
    for name in ("ar.json", "nar.json"):
        meta = json.loads((old / name).read_text())
        training = meta.pop("training")
        (old / name).write_text(json.dumps(meta, indent=2) + "\n")
    meta = json.loads((old / "proposed_bundle.json").read_text()) | {"provenance": {"training": training}}
    (old / "proposed_bundle.json").write_text(json.dumps(meta, indent=2) + "\n")
    (old / "config.json").write_text(json.dumps(training, indent=2) + "\n")
    assert pl.load_bundle(old, pl.KIND_PROPOSED).ar.training is None
    reports = []
    for bundle in (workspace / "prop", old):
        out = tmp_path / f"eval_{bundle.name}"
        assert run("eval", "--bundle", bundle, "--corpus", workspace / "world", "--splits", "clean,other",
                   "--n-prompts", 2, "--seed", 3, "--out", out) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_train_config_hash_covers_the_model_config(tmp_path, workspace):
    model_config = json.loads((workspace / "model.json").read_text())
    manifests = []
    for n_heads in (2, 4):  # one --model-config path, two model configs
        (tmp_path / "model.json").write_text(json.dumps(model_config | {"n_heads": n_heads}))
        argv = _train_argv(workspace, tmp_path / f"t{n_heads}", "nar")
        argv[argv.index("--model-config") + 1] = tmp_path / "model.json"
        assert run(*argv, "--set", "steps=1") == 0
        manifests.append(json.loads((tmp_path / f"t{n_heads}" / "manifest_nar.json").read_text()))
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
    assert [m["params"]["model_config"]["n_heads"] for m in manifests] == [2, 4]


def test_eval_manifest_hashes_every_bundle_file(tmp_path, workspace, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(workspace / "prop", bundle)
    meta = json.loads((bundle / "ar.json").read_text())
    manifests = []
    for n_heads in (2, 4):  # the sidecar sets the model's heads, and so the report
        (bundle / "ar.json").write_text(json.dumps(meta | {"config": meta["config"] | {"n_heads": n_heads}}))
        out = tmp_path / f"e{n_heads}"
        assert run("eval", "--bundle", bundle, "--corpus", workspace / "world", "--splits", "clean",
                   "--n-prompts", 1, "--out", out) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
    assert {str(bundle / n) for n in pl.bundle_files(pl.KIND_PROPOSED)} <= set(manifests[0]["inputs"])
    (bundle / "nar.json").unlink()  # the task crashes, and the manifest is still written
    assert run("eval", "--bundle", bundle, "--corpus", workspace / "world", "--splits", "clean",
               "--n-prompts", 1, "--out", tmp_path / "crashed") == 3
    inputs = json.loads((tmp_path / "crashed" / "manifest.json").read_text())["inputs"]
    assert str(bundle / "ar.json") in inputs and str(bundle / "nar.json") not in inputs
    assert "nar.json" in capsys.readouterr().err


def _run_recording_reads(monkeypatch, *argv) -> tuple:
    """(exit code, every path the run opened for reading before it wrote its manifest)."""
    reads, recording = set(), [True]
    write_manifest = cli._write_manifest

    def recorder(real_open):
        def recording_open(file, mode="r", *args, **kwargs):
            if recording and "r" in mode and isinstance(file, (str, os.PathLike)):
                reads.add(str(file))
            return real_open(file, mode, *args, **kwargs)
        return recording_open

    def manifest_after_reads(*args, **kwargs):
        recording.clear()  # the manifest reads what it hashes
        return write_manifest(*args, **kwargs)

    # read_text and read_bytes open through Path.open on every supported Python;
    # patching io.open would miss them where pathlib bound it at import
    monkeypatch.setattr(Path, "open", recorder(Path.open))
    monkeypatch.setattr(builtins, "open", recorder(builtins.open))
    monkeypatch.setattr(cli, "_write_manifest", manifest_after_reads)
    return run(*argv), reads


@pytest.mark.parametrize("subcommand", ["world", "quantize", "train", "eval"])
def test_manifest_inputs_are_every_file_the_run_read(tmp_path, workspace, monkeypatch, subcommand):
    corpus = [workspace / "world" / n for n in ("world.json", "train.jsonl", "test_clean.jsonl", "test_other.jsonl")]
    quantizers = workspace / "quant" / "quantizers.ckpt"
    out = tmp_path / "out"
    argv, inputs = {
        "world": (["world", "--spec", workspace / "world_spec.json", "--n-train", 4, "--n-test", 2],
                  [workspace / "world_spec.json"]),
        "quantize": (["quantize", "--corpus", workspace / "world", "--k-phonetic", 16, "--k-codec", 8,
                      "--layers", 2, "--iters", 2], corpus),
        "train": (_train_argv(workspace, out) + ["--config", workspace / "train.json", "--set", "steps=1"],
                  corpus + [quantizers, quantizers.with_suffix(".json"), workspace / "train.json",
                            workspace / "model.json"]),
        "eval": (["eval", "--bundle", workspace / "prop", "--corpus", workspace / "world", "--splits", "clean",
                  "--n-prompts", 1],
                 corpus + [workspace / "prop" / n for n in pl.bundle_files(pl.KIND_PROPOSED)]),
    }[subcommand]
    rc, reads = _run_recording_reads(monkeypatch, *argv, *([] if subcommand == "train" else ["--out", out]))
    assert rc == 0
    manifest = next(out.glob("manifest*.json"))
    assert set(json.loads(manifest.read_text())["inputs"]) == set(map(str, inputs)) == reads


def test_train_set_override(tmp_path, workspace):
    rc = run("train", "--mode", "proposed_ar", "--corpus", workspace / "world",
             "--quantizers", workspace / "quant" / "quantizers.ckpt",
             "--config", workspace / "train.json", "--model-config", workspace / "model.json",
             "--set", "steps=3", "--seed", 1, "--out", tmp_path / "t")
    assert rc == 0
    lines = (tmp_path / "t" / "losses_proposed_ar.csv").read_text().strip().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize("config_seed, flag, want", [(None, None, 0), (7, None, 7), (7, 2, 2)])
def test_train_seed_is_the_flag_then_the_config_seed_then_zero(tmp_path, workspace, config_seed, flag, want):
    config = {"steps": 1, "batch_size": 2} | ({} if config_seed is None else {"seed": config_seed})
    (tmp_path / "train.json").write_text(json.dumps(config))
    argv = _train_argv(workspace, tmp_path / "t") + ["--config", tmp_path / "train.json"]
    assert run(*argv, *([] if flag is None else ["--seed", flag])) == 0
    assert json.loads((tmp_path / "t" / "ar.json").read_text())["training"]["seed"] == want
    manifest = json.loads((tmp_path / "t" / "manifest_proposed_ar.json").read_text())
    assert manifest["params"]["training"]["seed"] == want


def test_config_hash_covers_the_quantize_and_eval_seeds(tmp_path, workspace):
    argvs = {
        "quantize": ["quantize", "--corpus", workspace / "world", "--k-phonetic", 16, "--k-codec", 8,
                     "--layers", 2, "--iters", 2],
        "eval": ["eval", "--bundle", workspace / "prop", "--corpus", workspace / "world",
                 "--splits", "clean", "--n-prompts", 1],
    }
    for (name, argv), seeds in zip(argvs.items(), ((1, 2), (0, 5))):
        manifests = []
        for seed in seeds:
            out = tmp_path / f"{name}{seed}"
            assert run(*argv, "--seed", seed, "--out", out) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert [m["params"]["seed"] for m in manifests] == list(seeds)
        assert manifests[0]["config_hash"] != manifests[1]["config_hash"]


def test_a_malformed_input_manifest_does_not_fail_the_run(tmp_path, workspace):
    corpus = tmp_path / "world"
    shutil.copytree(workspace / "world", corpus)
    (corpus / "manifest.json").write_text("not json {")
    out = tmp_path / "q"
    assert run("quantize", "--corpus", corpus, "--k-phonetic", 16, "--k-codec", 8, "--layers", 2,
               "--iters", 2, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "quantize" and "parents" not in manifest


def test_each_train_stage_writes_its_own_manifest(tmp_path, workspace):
    out = tmp_path / "bundle"
    for mode in pl.MODES:
        assert run(*_train_argv(workspace, out, mode), "--set", "steps=1") == 0
    for mode, entry in pl.MODES.items():
        manifest = json.loads((out / f"manifest_{mode}.json").read_text())
        assert manifest["params"]["mode"] == mode
        assert entry.checkpoint in manifest["outputs"] and f"losses_{mode}.csv" in manifest["outputs"]
    assert not (out / "manifest.json").exists()


def test_seed_defaults_to_zero_for_every_other_subcommand():
    parser = cli.build_parser()
    for argv in (["quantize", "--corpus", "c", "--out", "q"],
                 ["eval", "--bundle", "b", "--corpus", "c", "--out", "e"],
                 ["synth", "--bundle", "b", "--corpus", "c", "--index", "0", "--prompt-index", "1", "--out", "s"]):
        assert parser.parse_args(argv).seed == 0


def _train_argv(workspace, out, mode="proposed_ar"):
    return ["train", "--mode", mode, "--corpus", workspace / "world",
            "--quantizers", workspace / "quant" / "quantizers.ckpt",
            "--model-config", workspace / "model.json", "--out", out]


@pytest.mark.parametrize("case, extra, named", [
    ("world_key", ["--set", "bogus=1"], "bogus"),
    ("train_key", ["--set", "bogus=3"], "bogus"),
    ("train_type", ["--set", "steps=abc"], "TrainingConfig"),
    ("model_config_key", [], "bogus_width"),
    # a config.json as written before checkpoint_interval was removed
    ("old_config", {"steps": 3, "checkpoint_interval": 0}, "checkpoint_interval"),
    ("learning_rate", ["--set", "learning_rate=0"], "must be positive"),
    ("grad_clip", ["--set", "grad_clip=-1"], "grad_clip must be a finite real >= 0, got -1"),
    ("quantizers_is_a_model", [], "not a quantizer set"),
    ("quantizers_garbage", [], "bad magic"),
    ("steps_float", ["--set", "steps=1.5"], "steps"),
    ("batch_size_float", ["--set", "batch_size=2.5"], "batch_size"),
    ("steps_bool", ["--set", "steps=true"], "steps"),
    # a dict is a --model-config file, checked before the corpus is tokenized
    ("model_value", {"n_heads": 0}, "n_heads must be >= 1"),
    ("model_value", {"d_model": 0}, "d_model must be >= 1"),
    ("model_value", {"d_ff": 0}, "d_ff must be >= 1"),
    ("model_value", {"phoneme_vocab": 0}, "phoneme_vocab must be >= 1"),
    ("model_value", {"phonetic_vocab": -1}, "phonetic_vocab must be >= 1"),
    ("model_value", {"codec_vocab": 0}, "codec_vocab must be >= 1"),
    ("model_value", {"n_codec_layers": 0}, "n_codec_layers must be >= 1"),
    ("model_value", {"max_sequence_len": 0}, "max_sequence_len must be >= 1"),
    ("model_value", {"n_layers": -1}, "n_layers must be >= 0"),
    ("model_value", {"dropout": 1.0}, "dropout must be in [0, 1)"),
    ("model_value", {"dropout": -0.1}, "ModelConfig.dropout must be a finite real >= 0, got -0.1"),
    ("model_value", {"dropout": "x"}, "ModelConfig.dropout must be a finite real >= 0, got 'x'"),
    # a config.json as written while TrainingConfig had a mode field, which --mode overwrote
    ("old_config", {"steps": 3, "seed": 0, "mode": "proposed_ar"}, "'mode'"),
    ("train_key", ["--set", "mode=proposed_ar"], "'mode'"),
    ("quantizers_without_sidecar", [], "quantizers.json"),
    ("seed_negative", ["--set", "seed=-1"], "TrainingConfig.seed must be >= 0"),
    ("seed_float", ["--set", "seed=1.5"], "TrainingConfig.seed"),
    ("seed_bool", ["--set", "seed=true"], "TrainingConfig.seed"),
    ("world_value", ["--set", "num_speakers=8.0"], "WorldSpec.num_speakers must be an int, got 8.0"),
    ("model_value", {"d_model": 32.0}, "ModelConfig.d_model must be an int, got 32.0"),
    ("model_value", {"n_layers": True}, "ModelConfig.n_layers must be an int, got True"),
    # a float field that is not a finite real
    ("world_value", ["--set", "prosody_noise_sigma=NaN"], "prosody_noise_sigma must be a finite real >= 0, got nan"),
    ("world_value", ["--set", 'prosody_noise_sigma="x"'], "prosody_noise_sigma must be a finite real >= 0, got 'x'"),
    ("world_value", ["--set", "condition_noise_sigma_other=Infinity"], "WorldSpec.condition_noise_sigma_other must be"),
    ("world_value", ["--set", "speaker_embedding_scale=true"], "WorldSpec.speaker_embedding_scale must be"),
    ("learning_rate", ["--set", "learning_rate=true"], "learning_rate must be a finite real >= 0, got True"),
    ("grad_clip", ["--set", "grad_clip=true"], "grad_clip must be a finite real >= 0, got True"),
    ("learning_rate", ["--set", 'learning_rate="x"'], "learning_rate must be a finite real >= 0, got 'x'"),
    ("config_value", {"grad_clip": float("inf")}, "grad_clip must be a finite real >= 0, got inf"),
    ("config_value", {"learning_rate": float("inf")}, "learning_rate must be a finite real >= 0, got inf"),
])
def test_bad_config_values_exit_with_validation_code(tmp_path, workspace, capsys, case, extra, named):
    argv = _train_argv(workspace, tmp_path / "t")
    bad = tmp_path / "bad.json"
    if case == "model_value":
        bad.write_text(json.dumps(extra))
        argv[argv.index("--model-config") + 1] = bad
    elif case in ("old_config", "config_value"):  # a dict is a --config file, Infinity as json.dumps writes it
        bad.write_text(json.dumps(extra))
        argv += ["--config", bad]
    else:
        argv += extra
    if case.startswith("world"):
        argv = ["world", "--out", tmp_path / "w", "--n-train", 4, "--n-test", 2] + extra
    elif case == "model_config_key":
        bad.write_text(json.dumps({"n_layers": 1, "bogus_width": 4}))
        argv[argv.index("--model-config") + 1] = bad
    elif case.startswith("quantizers"):
        bad = workspace / "prop" / "ar.ckpt"
        if case == "quantizers_garbage":
            bad = tmp_path / "garbage.ckpt"
            bad.write_bytes(b"not a checkpoint at all")
        elif case == "quantizers_without_sidecar":
            bad = tmp_path / "quantizers.ckpt"
            shutil.copy(workspace / "quant" / "quantizers.ckpt", bad)
        argv[argv.index("--quantizers") + 1] = bad
    assert run(*argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "t").exists() and not (tmp_path / "w").exists()


@pytest.mark.parametrize("content, named", [
    (None, "cannot read"),  # no file at the path
    ("{bad", "cannot read"),  # not JSON
    (b"\xff\xfe{}", "cannot read"),  # not UTF-8
    ("[1, 2]", "holds a JSON list, not an object"),
    ('"steps"', "holds a JSON str, not an object"),
], ids=["missing", "not_json", "not_utf8", "list", "string"])
@pytest.mark.parametrize("flag, cls", [
    ("--spec", "WorldSpec"), ("--config", "TrainingConfig"), ("--model-config", "ModelConfig"),
])
def test_an_unreadable_or_non_object_config_file_exits_with_validation_code(tmp_path, workspace, capsys, flag,
                                                                              cls, content, named):
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    out = tmp_path / "out"
    if flag == "--spec":
        argv = ["world", "--spec", bad, "--out", out, "--n-train", 4, "--n-test", 2]
    else:
        argv = _train_argv(workspace, out)
        if flag == "--model-config":
            argv[argv.index("--model-config") + 1] = bad
        else:
            argv += [flag, bad]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"bad {cls}: " in err and named in err and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["world", "quantize", "train", "eval", "synth"])
def test_a_negative_seed_exits_before_any_output(tmp_path, workspace, capsys, subcommand):
    out = tmp_path / "out"
    world, bundle = workspace / "world", workspace / "prop"
    argv = {
        "world": ["world", "--n-train", 4, "--n-test", 2, "--out", out],
        "quantize": ["quantize", "--corpus", world, "--out", out],
        "train": _train_argv(workspace, out),
        "eval": ["eval", "--bundle", bundle, "--corpus", world, "--out", out],
        "synth": ["synth", "--bundle", bundle, "--corpus", world, "--index", 0, "--prompt-index", 1, "--out", out],
    }[subcommand]
    assert "argument --seed: must be >= 0, got -1" in _exits_in_the_parser(capsys, *argv, "--seed", -1)
    assert not out.exists()


@pytest.mark.parametrize("case", ["world", "quantize", "train", "train_quantizers", "eval", "synth_dir",
                                  "synth_under_file"])
def test_a_path_of_the_wrong_kind_exits_2_before_any_work(tmp_path, workspace, capsys, monkeypatch, case):
    # a file where a directory belongs, or a directory where a file does
    taken, empty = tmp_path / "taken", tmp_path / "empty"
    taken.write_text("keep me\n")
    empty.mkdir()
    ran = []
    for name in ("train_mode", "load_bundle"):
        monkeypatch.setattr(pl, name, lambda *a, name=name, **kw: ran.append(name))
    world, bundle = workspace / "world", workspace / "prop"
    synth = ["synth", "--bundle", bundle, "--corpus", world, "--index", 0, "--prompt-index", 1, "--out"]
    not_dir = f"--out {taken}: {taken} is not a directory"
    argv, named = {
        "world": (["world", "--n-train", 4, "--n-test", 2, "--out", taken], not_dir),
        "quantize": (["quantize", "--corpus", world, "--out", taken], not_dir),
        "train": (_train_argv(workspace, taken), not_dir),
        "train_quantizers": ([*_train_argv(workspace, tmp_path / "t"), "--quantizers", empty],
                             f"missing quantizers checkpoint file: {empty}"),
        "eval": (["eval", "--bundle", bundle, "--corpus", world, "--out", taken], not_dir),
        "synth_dir": (synth + [empty], f"--out {empty}: {empty} is a directory"),
        "synth_under_file": (synth + [taken / "x.jsonl"], f"--out {taken / 'x.jsonl'}: {taken} is not a directory"),
    }[case]
    assert run(*argv) == 2
    assert named in capsys.readouterr().err
    assert taken.read_text() == "keep me\n" and not any(empty.iterdir())
    assert ran == [] and not (tmp_path / "t").exists()


def test_train_refuses_a_bundle_trained_against_other_quantizers_or_another_world(tmp_path, workspace, capsys):
    # every stage rewrites the bundle's quantizers and world, under the stages already trained against them
    for name, seed in (("w", 7), ("w2", 8)):
        assert run("world", "--spec", workspace / "world_spec.json", "--out", tmp_path / name,
                   "--n-train", 24, "--n-test", 6, "--seed", seed) == 0
    for name, seed in (("qa", 1), ("qb", 2)):
        assert run("quantize", "--corpus", tmp_path / "w", "--k-phonetic", 16, "--k-codec", 8, "--layers", 4,
                   "--iters", 2, "--seed", seed, "--out", tmp_path / name) == 0
    bundle = tmp_path / "B"

    def train(mode, corpus, quant, *extra):
        return run("train", "--mode", mode, "--corpus", tmp_path / corpus,
                   "--quantizers", tmp_path / quant / pl.QUANTIZERS, "--model-config", workspace / "model.json",
                   "--out", bundle, "--set", "steps=1", *extra)

    assert train("proposed_ar", "w", "qa") == 0
    before = {p.name: p.read_bytes() for p in bundle.iterdir()}
    capsys.readouterr()
    for argv, named in [(("nar", "w", "qb"), "trained against other quantizers"),
                        (("nar", "w", "qb", "--force"), "trained against other quantizers"),
                        (("proposed_ar", "w", "qb", "--force"), "trained against other quantizers"),
                        (("nar", "w2", "qa"), "proposed_bundle.json names another world")]:
        assert train(*argv) == 2, argv
        assert named in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before
    assert train("nar", "w", "qa") == 0  # the bundle's own quantizers and world still train into it


def test_bundle_stages_are_found_by_kind_and_the_bundle_json_by_name(tmp_path, workspace, monkeypatch, capsys):
    # neither the mode table's order nor the file list's decides which file holds what
    bundle = pl.load_bundle(workspace / "prop", pl.KIND_PROPOSED)
    pl.save_bundle(bundle, tmp_path / "in_order")
    files = pl.bundle_files
    monkeypatch.setattr(pl, "MODES", dict(reversed(pl.MODES.items())))
    monkeypatch.setattr(pl, "bundle_files", lambda kind: files(kind)[::-1])
    pl.save_bundle(dataclasses.replace(bundle), tmp_path / "reordered")
    names = sorted(p.name for p in (tmp_path / "in_order").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "reordered").iterdir())
    for name in names:
        assert (tmp_path / "reordered" / name).read_bytes() == (tmp_path / "in_order" / name).read_bytes(), name
    loaded = pl.load_bundle(tmp_path / "reordered", pl.KIND_PROPOSED)
    for got, want in ((loaded.ar, bundle.ar), (loaded.nar, bundle.nar)):
        assert (got.kind, got.role) == (want.kind, want.role)
        assert all((got.params[n].data == p.data).all() for n, p in want.params.items())
    # `train`'s world guard still reads the bundle JSON
    assert run("world", "--spec", workspace / "world_spec.json", "--out", tmp_path / "w2",
               "--n-train", 16, "--n-test", 6, "--seed", 4) == 0
    capsys.readouterr()
    assert run("train", "--mode", "nar", "--corpus", tmp_path / "w2",
               "--quantizers", workspace / "quant" / pl.QUANTIZERS, "--model-config", workspace / "model.json",
               "--out", tmp_path / "reordered", "--set", "steps=1", "--force") == 2
    assert "proposed_bundle.json names another world" in capsys.readouterr().err


def test_file_names_come_from_the_mode_table(workspace):
    assert cli._MODE_FILES == {name: m.checkpoint for name, m in pl.MODES.items()}
    assert set(pl.SYSTEMS) == {m.system for m in pl.MODES.values()}
    for kind in pl.SYSTEMS:
        ckpts = [m.checkpoint for m in pl.MODES.values() if m.system == kind] + [pl.QUANTIZERS]
        assert [n for n in pl.bundle_files(kind) if n.endswith(".ckpt")] == ckpts
    for d in ("prop", "base"):
        kind = next((workspace / d).glob("*_bundle.json")).name.removesuffix("_bundle.json")
        written = {p.name for p in (workspace / d).iterdir()}
        records = {f"{f}_{m}.{ext}" for m, v in pl.MODES.items() if v.system == kind
                   for f, ext in (("losses", "csv"), ("manifest", "json"))}
        assert written == set(pl.bundle_files(kind)) | records


def test_every_output_file_is_written_atomically(tmp_path, workspace, monkeypatch):
    written = set()
    write_atomic = checkpoint.write_atomic

    def recording(path, data):
        written.add(Path(path))
        write_atomic(path, data)

    monkeypatch.setattr(checkpoint, "write_atomic", recording)
    assert run("world", "--spec", workspace / "world_spec.json", "--out", tmp_path / "w",
               "--n-train", 8, "--n-test", 4, "--seed", 3) == 0
    assert run("quantize", "--corpus", tmp_path / "w", "--k-phonetic", 8, "--k-codec", 4,
               "--layers", 2, "--iters", 1, "--out", tmp_path / "q") == 0
    assert run(*_train_argv(workspace, tmp_path / "t"), "--set", "steps=1") == 0
    assert run("eval", "--bundle", workspace / "prop", "--corpus", workspace / "world",
               "--splits", "clean", "--n-prompts", 1, "--out", tmp_path / "e") == 0
    outputs = {p for d in ("w", "q", "t", "e") for p in (tmp_path / d).iterdir()}
    assert len(outputs) == 18  # 5 corpus, 3 quantizer, 7 bundle and 3 report files
    assert outputs <= written


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
    assert report["splits"] == ["test_other"]


@pytest.mark.parametrize("flag, value", [
    ("--n-prompts", 0), ("--n-prompts", -1), ("--seeds", 0), ("--seeds", -2), ("--jobs", 0),
])
def test_eval_rejects_counts_below_one(tmp_path, workspace, capsys, flag, value):
    out = tmp_path / "r"
    err = _exits_in_the_parser(capsys, "eval", "--bundle", workspace / "prop", "--corpus", workspace / "world",
                               "--splits", "clean", flag, value, "--out", out)
    assert f"argument {flag}: must be >= 1, got {value}" in err
    assert not out.exists()


def test_eval_rejects_a_repeated_bundle(tmp_path, workspace, capsys):
    out = tmp_path / "r"
    # the second spelling resolves to the same directory
    rc = run("eval", "--bundle", workspace / "prop", "--bundle", workspace / "base" / ".." / "prop",
             "--corpus", workspace / "world", "--splits", "clean", "--n-prompts", 1, "--out", out)
    assert rc == 2
    assert "both hold a proposed system" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_two_bundles_of_one_system(tmp_path, workspace, capsys):
    # a second proposed bundle would be pooled with the first as seed replicates
    second = tmp_path / "prop2"
    shutil.copytree(workspace / "prop", second)
    out = tmp_path / "r"
    rc = run("eval", "--bundle", workspace / "prop", "--bundle", second, "--corpus", workspace / "world",
             "--splits", "clean", "--n-prompts", 1, "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--bundle {workspace / 'prop'} and {second} both hold a proposed system" in err
    assert not out.exists()


def test_eval_rejects_a_repeated_split(tmp_path, workspace, capsys):
    out = tmp_path / "r"
    rc = run("eval", "--bundle", workspace / "prop", "--corpus", workspace / "world",
             "--splits", "clean,other, clean", "--n-prompts", 1, "--out", out)
    assert rc == 2
    assert "--splits names 'clean' twice" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_a_split_with_nothing_to_score_before_writing(tmp_path, workspace, capsys):
    # the held-out pool is one speaker, so a lone test utterance has no prompt partner
    assert run("world", "--spec", workspace / "world_spec.json", "--out", tmp_path / "world1",
               "--n-train", 16, "--n-test", 1, "--seed", 3) == 0
    out = tmp_path / "r"
    rc = run("eval", "--bundle", workspace / "prop", "--corpus", tmp_path / "world1", "--splits", "other",
             "--n-prompts", 2, "--out", out)
    assert rc == 2
    assert "nothing to score in test_other" in capsys.readouterr().err
    assert not out.exists()


def test_eval_loads_corpus_once_and_each_bundle_once_per_seed(tmp_path, workspace, monkeypatch):
    corpus_loads, bundle_loads = [], []
    load_corpus, load_bundle = tw.load_corpus, pl.load_bundle

    def counting_corpus(path):
        corpus_loads.append(Path(path))
        return load_corpus(path)

    def counting_bundle(bundle_dir, kind):
        bundle_loads.append((Path(bundle_dir), kind))
        return load_bundle(bundle_dir, kind)

    monkeypatch.setattr(tw, "load_corpus", counting_corpus)
    monkeypatch.setattr(pl, "load_bundle", counting_bundle)
    rc = run("eval", "--bundle", workspace / "prop", "--bundle", workspace / "base",
             "--corpus", workspace / "world", "--splits", "clean,other", "--n-prompts", 2,
             "--seeds", 2, "--seed", 3, "--jobs", 1, "--out", tmp_path / "r")
    assert rc == 0
    assert corpus_loads == [workspace / "world"]
    assert bundle_loads == [(workspace / "prop", "proposed")] * 2 + [(workspace / "base", "baseline")] * 2
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert [(r["system"], r["seed"]) for r in report["per_seed"]] == [
        ("proposed", 3), ("proposed", 4), ("baseline", 3), ("baseline", 4)]
    assert all(list(r["splits"]) == ["test_clean", "test_other"] for r in report["per_seed"])


def test_eval_manifest_lists_only_the_reports_it_wrote(tmp_path, workspace):
    out = tmp_path / "e"
    out.mkdir()
    (out / "notes.txt").write_text("left by another run")
    broken = tmp_path / "broken"
    shutil.copytree(workspace / "prop", broken)
    (broken / "ar.ckpt").write_bytes(b"")
    argv = ["eval", "--corpus", workspace / "world", "--splits", "clean", "--n-prompts", 1, "--out", out, "--force"]
    assert run(*argv, "--bundle", workspace / "prop") == 0
    assert list(json.loads((out / "manifest.json").read_text())["outputs"]) == ["report.json", "report.txt"]
    assert run(*argv, "--bundle", broken) == 3  # every task crashed: no report was written
    assert json.loads((out / "manifest.json").read_text())["outputs"] == {}
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "notes.txt"]


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
    assert (tmp_path / "serial" / "report.json").read_bytes() == (tmp_path / "parallel" / "report.json").read_bytes()


def test_eval_reports_crashed_tasks_and_scores_the_rest(tmp_path, workspace, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(workspace / "base", broken)
    ckpt = broken / "baseline_nar.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    reports = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        rc = run("eval", "--bundle", workspace / "prop", "--bundle", broken, "--corpus", workspace / "world",
                 "--splits", "clean,other", "--n-prompts", 2, "--seed", 5, "--jobs", jobs, "--out", out)
        assert rc == 3
        err = capsys.readouterr().err
        crashed = [line for line in err.splitlines() if line.startswith("synthesis crashed for")]
        assert len(crashed) == 1 and "1 synthesis task(s) crashed" in err
        assert f"('{broken}', 'baseline', 5)" in crashed[0]
        reports.append((out / "report.json").read_bytes())
        assert json.loads(reports[-1])["systems"] == ["proposed"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name, damage", [
    ("ar.json", "not json {"),
    ("nar.json", None),
    ("nar.json", json.dumps({"kind": "nar", "role": "proposed", "config": {"n_heads": 0}})),
    ("quantizers.json", json.dumps({"phonetic": {}})),
    ("quantizers.json", None),
    ("proposed_bundle.json", None),
    ("proposed_bundle.json", json.dumps({"kind": "proposed"})),
    ("nar.json", {"kind": "bogus"}),  # a dict: fields written over the sidecar's own
    ("proposed_bundle.json", {"kind": "baseline"}),
])
def test_malformed_or_missing_sidecar_is_a_checkpoint_error_naming_it(tmp_path, workspace, capsys, name, damage):
    bundle = tmp_path / "bundle"
    shutil.copytree(workspace / "prop", bundle)
    if damage is None:
        (bundle / name).unlink()
    elif isinstance(damage, dict):
        (bundle / name).write_text(json.dumps(json.loads((bundle / name).read_text()) | damage))
    else:
        (bundle / name).write_text(damage)
    rc = run("synth", "--bundle", bundle, "--corpus", workspace / "world", "--index", 0,
             "--prompt-index", 1, "--out", tmp_path / "s.jsonl")
    assert rc == 2
    assert str(bundle / name) in capsys.readouterr().err
    rc = run("eval", "--bundle", bundle, "--corpus", workspace / "world", "--splits", "clean",
             "--n-prompts", 1, "--out", tmp_path / "e")
    assert rc == 3
    crashed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("synthesis crashed for")]
    assert len(crashed) == 1 and str(bundle / name) in crashed[0]


def _world_of_seed_4(workspace, tmp_path):
    assert run("world", "--spec", workspace / "world_spec.json", "--out", tmp_path / "world4",
               "--n-train", 16, "--n-test", 6, "--seed", 4) == 0
    return tmp_path / "world4"


_WORLD_MISMATCH = "corpus world (seed 4) is not the bundle's world (seed 3)"


def test_eval_reports_a_corpus_from_another_world_as_crashed(tmp_path, workspace, capsys):
    corpus = _world_of_seed_4(workspace, tmp_path)
    rc = run("eval", "--bundle", workspace / "prop", "--corpus", corpus, "--splits", "clean",
             "--n-prompts", 2, "--out", tmp_path / "e")
    assert rc == 3
    crashed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("synthesis crashed for")]
    assert len(crashed) == 1 and _WORLD_MISMATCH in crashed[0]
    assert not (tmp_path / "e" / "report.json").exists()


def test_synth_rejects_a_corpus_from_another_world(tmp_path, workspace, capsys):
    corpus = _world_of_seed_4(workspace, tmp_path)
    rc = run("synth", "--bundle", workspace / "prop", "--corpus", corpus, "--index", 0,
             "--prompt-index", 1, "--out", tmp_path / "s.jsonl")
    assert rc == 2
    assert _WORLD_MISMATCH in capsys.readouterr().err
    assert not (tmp_path / "s.jsonl").exists()


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


@pytest.mark.parametrize("flag, value, message", [
    ("--temperature", "nan", "must be a finite number > 0, got nan"),
    ("--temperature", "inf", "must be a finite number > 0, got inf"),
    ("--temperature", "0", "must be a finite number > 0, got 0"),
    ("--temperature", "-1", "must be a finite number > 0, got -1"),
    ("--top-k", "0", "must be >= 1, got 0"),
])
def test_synth_rejects_bad_sampling_flags_in_the_parser(tmp_path, workspace, capsys, flag, value, message):
    out_file = tmp_path / "s.jsonl"
    err = _exits_in_the_parser(capsys, "synth", "--bundle", workspace / "prop", "--corpus", workspace / "world",
                               "--index", 0, "--prompt-index", 1, flag, value, "--out", out_file)
    assert f"argument {flag}: {message}" in err
    assert not out_file.exists()


def test_synth_rejects_same_prompt_and_target(tmp_path, workspace):
    rc = run("synth", "--bundle", workspace / "prop", "--corpus", workspace / "world",
             "--index", 0, "--prompt-index", 0, "--out", tmp_path / "x.jsonl")
    assert rc == 2


def test_synth_accepts_a_temperature_below_one(tmp_path, workspace):
    out_file = tmp_path / "s.jsonl"
    rc = run("synth", "--bundle", workspace / "prop", "--corpus", workspace / "world", "--index", 0,
             "--prompt-index", 1, "--temperature", "0.5", "--out", out_file)
    assert rc == 0
    assert json.loads(out_file.read_text())["system"] == "proposed"


@pytest.mark.parametrize("case, extra, message", [
    ("empty_bundle", [], "no complete bundle in"),
    ("other_system", ["--system", "baseline"], "has no baseline system"),
    ("index", ["--index", 99], "utterance index out of range for split of 6"),
    ("prompt_index", ["--prompt-index", -1], "utterance index out of range for split of 6"),
])
def test_synth_exits_2_before_writing_on_a_bundle_or_index_it_cannot_use(tmp_path, workspace, capsys, case,
                                                                         extra, message):
    bundle = workspace / "prop"
    if case == "empty_bundle":
        bundle = tmp_path / "empty"
        bundle.mkdir()
    out_file = tmp_path / "s.jsonl"
    rc = run("synth", "--bundle", bundle, "--corpus", workspace / "world", "--index", 0, "--prompt-index", 1,
             *extra, "--out", out_file)  # a flag given twice takes its last value
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out_file.exists()


def test_train_onto_an_existing_stage_needs_force(tmp_path, workspace, capsys):
    stage = workspace / "prop" / pl.MODES["proposed_ar"].checkpoint
    before = stage.read_bytes()
    assert run(*_train_argv(workspace, workspace / "prop")) == 2
    assert f"{stage} exists (use --force to overwrite)" in capsys.readouterr().err
    assert stage.read_bytes() == before


def test_eval_rejects_an_unknown_split_name(tmp_path, workspace, capsys):
    rc = run("eval", "--bundle", workspace / "prop", "--corpus", workspace / "world",
             "--splits", "clean,dirty", "--out", tmp_path / "e")
    assert rc == 2
    assert "unknown split 'dirty'" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("subcommand", ["world", "train"])
def test_a_set_without_an_equals_sign_exits_2(tmp_path, workspace, capsys, subcommand):
    out = tmp_path / "o"
    argv = ["world", "--out", out] if subcommand == "world" else _train_argv(workspace, out)
    assert run(*argv, "--set", "steps") == 2
    assert "--set expects key=value, got 'steps'" in capsys.readouterr().err
    assert not out.exists()


def test_a_diverging_training_run_exits_3_naming_its_step(tmp_path, capsys):
    # a learning rate of 1e300 sends every weight past the float range in
    # step 0's update, so step 1's attention scores are NaN
    world, quant, out = tmp_path / "w", tmp_path / "q", tmp_path / "t"
    assert run("world", "--out", world, "--n-train", 40, "--n-test", 8, "--seed", 7) == 0
    assert run("quantize", "--corpus", world, "--iters", 2, "--out", quant) == 0
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = run("train", "--mode", "nar", "--corpus", world, "--quantizers", quant / pl.QUANTIZERS,
                 "--set", "steps=4", "--set", "learning_rate=1e300", "--set", "grad_clip=1e300", "--out", out)
    assert rc == 3
    assert "training failed: softmax_rows: NaN in input at step 1" in capsys.readouterr().err
    assert not out.exists()
