"""Operator surface: generate corpora, fit quantizers, train systems,
synthesize, and render comparison reports.

Every subcommand writes a manifest.json into its output directory that
enumerates the files it consumed (with hashes), the seeds in play, and a
config hash covering everything that affects results, and, outside that
hash, the subcommand's wall time and the process's peak resident set so far.
Exit codes: 0 success, 2 validation error (bad arguments or a malformed
corpus), 3 runtime/training failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import model as md
from . import pipeline as pl
from . import quantizer as qz
from . import tokenworld as tw
from .numerics import ContractError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_SPLIT_FLAGS = {"clean": "test_clean", "other": "test_other"}


class ValidationError(ValueError):
    pass


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("PHONOLM_SEED")
    return int(env) if env else 0


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _prepare_out(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise ValidationError(f"output directory {out} is not empty (use --force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parent_hashes(input_dirs) -> list:
    parents = []
    for d in input_dirs:
        m = Path(d) / "manifest.json"
        if m.exists():
            parents.append(json.loads(m.read_text()).get("config_hash"))
    return parents


def _write_manifest(out: Path, subcommand: str, params: dict, seeds: dict,
                    input_files, output_files, started: float, input_dirs=(), diagnostics=None) -> None:
    inputs = {str(p): _sha256(Path(p)) for p in sorted(str(x) for x in input_files)}
    payload = {"subcommand": subcommand, "params": params, "inputs": inputs}
    config_hash = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    manifest = {
        "subcommand": subcommand,
        "params": params,
        "seeds": seeds,
        "inputs": inputs,
        "outputs": {str(Path(p).name): _sha256(out / Path(p).name) for p in output_files},
        "config_hash": config_hash,
        "parents": _parent_hashes(input_dirs),
        "created_unix": int(time.time()),
        # trained weights can differ in their last bits with the BLAS thread count
        "environment": {
            "numpy": np.__version__,
            **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        # ru_maxrss is the process's peak so far, which in a process that ran
        # other work before this subcommand may come from that work
        "resources": {
            "wall_s": round(time.perf_counter() - started, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        },
    }
    if diagnostics:
        manifest["diagnostics"] = diagnostics
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _load_json_config(path, overrides) -> dict:
    data = json.loads(Path(path).read_text()) if path else {}
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_world(args) -> int:
    seed = _resolve_seed(args.seed)
    overrides = _parse_overrides(args.set)
    spec_dict = _load_json_config(args.spec, overrides)
    spec_dict["seed"] = seed
    spec = tw.WorldSpec.from_dict(spec_dict)
    if args.n_train <= 0:
        raise ValidationError("--n-train must be positive")
    out = _prepare_out(args.out, args.force)
    corpus = tw.build_corpus(spec, args.n_train, args.n_test, np.random.default_rng(seed))
    tw.save_corpus(corpus, out)

    # self-check: raw-frame oracle floor on a sample of the train split
    sample = corpus.train[: min(100, len(corpus.train))]
    edits = refs = 0
    for u in sample:
        edits += ev.levenshtein(u.phonemes, tw.oracle_transcribe(u.acoustic_frames, spec)).distance
        refs += len(u.phonemes)
    floor = edits / max(1, refs)
    print(f"world written to {out}: {args.n_train} train / {args.n_test} per test split; "
          f"raw-frame oracle PER {floor:.4%}")

    outputs = ["world.json"] + [f"{s}.jsonl" for s in tw.SPLITS]
    _write_manifest(
        out, "world",
        params={"spec": args.spec, "n_train": args.n_train, "n_test": args.n_test,
                "overrides": overrides, "world_spec": spec.to_dict()},
        seeds={"seed": seed},
        input_files=[args.spec] if args.spec else [],
        output_files=outputs,
        started=args.started,
        diagnostics={"raw_frame_oracle_per": floor},
    )
    return EXIT_OK


def cmd_quantize(args) -> int:
    seed = _resolve_seed(args.seed)
    corpus_dir = Path(args.corpus)
    if not (corpus_dir / "world.json").exists():
        raise ValidationError(f"no corpus at {corpus_dir}")
    corpus = tw.load_corpus(corpus_dir)
    n_phonetic = sum(u.phonetic_frames.shape[0] for u in corpus.train)
    n_acoustic = sum(u.acoustic_frames.shape[0] for u in corpus.train)
    if args.k_phonetic > n_phonetic:
        raise ValidationError(
            f"--k-phonetic {args.k_phonetic} exceeds the {n_phonetic} train phonetic frames"
        )
    if args.k_codec > n_acoustic:
        raise ValidationError(
            f"--k-codec {args.k_codec} exceeds the {n_acoustic} train acoustic frames"
        )
    out = _prepare_out(args.out, args.force)
    quant = pl.fit_corpus_quantizers(
        corpus, k_phonetic=args.k_phonetic, k_codec=args.k_codec,
        n_layers=args.layers, max_iters=args.iters, seed=seed,
    )
    qz.save_quantizers(quant, out / "quantizers.ckpt")
    print(f"quantizers written to {out}: K={args.k_phonetic} phonetic "
          f"(distortion {quant.phonetic.final_distortion:.5f}), "
          f"{args.layers}x{args.k_codec} RVQ "
          f"(residual energy {quant.rvq.residual_energy[-1]:.5f})")
    _write_manifest(
        out, "quantize",
        params={"corpus": str(corpus_dir), "k_phonetic": args.k_phonetic,
                "k_codec": args.k_codec, "layers": args.layers, "iters": args.iters},
        seeds={"seed": seed},
        input_files=[corpus_dir / "world.json", corpus_dir / "train.jsonl"],
        output_files=["quantizers.ckpt", "quantizers.json"],
        started=args.started,
        input_dirs=[corpus_dir],
        diagnostics={
            "phonetic_distortion": quant.phonetic.final_distortion,
            "rvq_residual_energy": quant.rvq.residual_energy,
        },
    )
    return EXIT_OK


_MODE_FILES = {
    pl.MODE_PROPOSED_AR: "ar.ckpt",
    pl.MODE_NAR: "nar.ckpt",
    pl.MODE_BASELINE_AR: "baseline_ar.ckpt",
    pl.MODE_BASELINE_NAR: "baseline_nar.ckpt",
}


def cmd_train(args) -> int:
    if args.mode not in pl.MODES:
        raise ValidationError(f"--mode must be one of {', '.join(pl.MODES)}")
    corpus_dir = Path(args.corpus)
    quant_path = Path(args.quantizers)
    if not quant_path.exists():
        raise ValidationError(f"missing quantizers checkpoint: {quant_path}")
    if not (corpus_dir / "world.json").exists():
        raise ValidationError(f"no corpus at {corpus_dir}")
    overrides = _parse_overrides(args.set)
    cfg_dict = _load_json_config(args.config, overrides)
    cfg_dict.setdefault("seed", _resolve_seed(args.seed))
    if args.seed is not None:
        cfg_dict["seed"] = int(args.seed)
    cfg_dict["mode"] = args.mode
    config = pl.TrainingConfig.from_dict(cfg_dict)

    corpus = tw.load_corpus(corpus_dir)
    quant = qz.load_quantizers(quant_path)
    model_config = None
    if args.model_config:
        base = pl.default_model_config(corpus.world_spec, quant).to_dict()
        base.update(json.loads(Path(args.model_config).read_text()))
        model_config = md.ModelConfig.from_dict(base)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_name = _MODE_FILES[args.mode]
    if (out / ckpt_name).exists() and not args.force:
        raise ValidationError(f"{out / ckpt_name} exists (use --force to overwrite)")

    model, losses = pl.train_mode(args.mode, corpus, quant, config, model_config)
    model.save(out / ckpt_name)
    losses_name = f"losses_{args.mode}.csv"
    with open(out / losses_name, "w") as f:
        f.write("step,loss\n")
        for i, l in enumerate(losses):
            f.write(f"{i},{l!r}\n")
    # keep the bundle dir self-contained for later evaluation
    (out / "quantizers.ckpt").write_bytes(quant_path.read_bytes())
    meta_src = quant_path.with_suffix(".json")
    if meta_src.exists():
        (out / "quantizers.json").write_bytes(meta_src.read_bytes())
    kind = pl.KIND_PROPOSED if args.mode in (pl.MODE_PROPOSED_AR, pl.MODE_NAR) else pl.KIND_BASELINE
    bundle_meta = {
        "kind": kind,
        "world_spec": corpus.world_spec.to_dict(),
        "provenance": {"training": config.to_dict()},
    }
    (out / f"{kind}_bundle.json").write_text(json.dumps(bundle_meta, indent=2) + "\n")
    (out / "config.json").write_text(json.dumps(config.to_dict(), indent=2) + "\n")

    print(f"{args.mode}: {config.steps} steps, loss {losses[0]:.4f} -> {losses[-1]:.4f}; "
          f"saved {out / ckpt_name}")
    _write_manifest(
        out, "train",
        params={"mode": args.mode, "corpus": str(corpus_dir),
                "quantizers": str(quant_path), "training": config.to_dict(),
                "model_config": args.model_config, "overrides": overrides},
        seeds={"seed": config.seed},
        input_files=[corpus_dir / "world.json", corpus_dir / "train.jsonl", quant_path],
        output_files=[ckpt_name, losses_name, "config.json"],
        started=args.started,
        input_dirs=[corpus_dir, quant_path.parent],
        diagnostics={"final_loss": losses[-1]},
    )
    return EXIT_OK


def _eval_task(task) -> tuple:
    """Worker for --jobs: loads everything from paths so tasks are independent."""
    bundle_dir, kind, corpus_dir, split, n_prompts, seed = task
    corpus = tw.load_corpus(corpus_dir)
    bundle = pl.load_bundle(bundle_dir, kind)
    metrics = ev.evaluate_system(bundle, corpus, split, n_prompts, seed)
    return (bundle_dir, kind, split, seed), metrics


def cmd_eval(args) -> int:
    corpus_dir = Path(args.corpus)
    if not (corpus_dir / "world.json").exists():
        raise ValidationError(f"no corpus at {corpus_dir}")
    splits = []
    for flag in args.splits.split(","):
        flag = flag.strip()
        if flag not in _SPLIT_FLAGS:
            raise ValidationError(f"unknown split {flag!r}; expected clean,other")
        splits.append(_SPLIT_FLAGS[flag])
    base_seed = _resolve_seed(args.seed)

    systems = []  # (bundle_dir, kind)
    for bundle_dir in args.bundle:
        kinds = pl.available_bundle_kinds(bundle_dir)
        if not kinds:
            missing = {k: pl.missing_bundle_files(bundle_dir, k) for k in pl._BUNDLE_FILES}
            raise ValidationError(f"no complete bundle in {bundle_dir}; missing {missing}")
        systems.extend((bundle_dir, k) for k in kinds)

    tasks = [
        (bundle_dir, kind, str(corpus_dir), split, args.n_prompts, base_seed + rep)
        for bundle_dir, kind in systems
        for rep in range(args.seeds)
        for split in splits
    ]
    out = _prepare_out(args.out, args.force)
    results = {}
    crashed = []
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            futures = {ex.submit(_eval_task, task): task for task in tasks}
            for future, task in futures.items():
                try:
                    key, metrics = future.result()
                    results[key] = metrics
                except tw.CorpusError:
                    raise
                except Exception as exc:  # noqa: BLE001 - report and flag via exit code
                    crashed.append((task, repr(exc)))
                    print(f"synthesis crashed for {task}: {exc}", file=sys.stderr)
    else:
        for task in tasks:
            try:
                key, metrics = _eval_task(task)
                results[key] = metrics
            except tw.CorpusError:
                raise
            except Exception as exc:  # noqa: BLE001 - report and flag via exit code
                crashed.append((task, repr(exc)))
                print(f"synthesis crashed for {task}: {exc}", file=sys.stderr)

    # fold per-(bundle, rep) reports into per-kind aggregates
    by_kind = {}
    reports = []
    for bundle_dir, kind in systems:
        for rep in range(args.seeds):
            seed = base_seed + rep
            report = ev.EvalReport(system=kind, seed=seed)
            complete = True
            for split in splits:
                key = (bundle_dir, kind, split, seed)
                if key not in results:
                    complete = False
                    break
                report.splits[split] = results[key]
            if complete:
                reports.append(report)
                by_kind.setdefault(kind, []).append(report)

    aggregates = [ev.aggregate_seed_reports(reps) for kind, reps in sorted(by_kind.items())]
    if len(aggregates) >= 2:
        comparison = ev.compare_systems(aggregates)
        ev.write_report(comparison, out, per_seed_reports=reports)
        print(comparison["text"])
    elif aggregates:
        payload = {"systems": [aggregates[0]["system"]], "aggregate": aggregates[0],
                   "per_seed": [r.to_dict() for r in reports]}
        (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        (out / "report.txt").write_text(json.dumps(aggregates[0], indent=2, sort_keys=True) + "\n")
        print(f"single system {aggregates[0]['system']}: report written (no comparison)")

    input_files = [corpus_dir / "world.json"] + [corpus_dir / f"{s}.jsonl" for s in splits]
    for bundle_dir, kind in systems:
        ar_name, nar_name = pl.bundle_file_names(kind)
        input_files += [Path(bundle_dir) / ar_name, Path(bundle_dir) / nar_name,
                        Path(bundle_dir) / "quantizers.ckpt"]
    _write_manifest(
        out, "eval",
        params={"bundles": list(args.bundle), "corpus": str(corpus_dir),
                "splits": args.splits, "seeds": args.seeds, "n_prompts": args.n_prompts,
                "jobs": args.jobs},
        seeds={"base_seed": base_seed},
        input_files=input_files,
        output_files=[p.name for p in out.iterdir() if p.name != "manifest.json"],
        started=args.started,
        input_dirs=[corpus_dir] + [b for b, _ in systems],
    )
    if crashed:
        print(f"{len(crashed)} synthesis task(s) crashed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_synth(args) -> int:
    corpus = tw.load_corpus(args.corpus)
    kinds = pl.available_bundle_kinds(args.bundle)
    if not kinds:
        raise ValidationError(f"no complete bundle in {args.bundle}")
    kind = args.system or kinds[0]
    if kind not in kinds:
        raise ValidationError(f"bundle {args.bundle} has no {kind} system")
    bundle = pl.load_bundle(args.bundle, kind)
    split = _SPLIT_FLAGS.get(args.split, args.split)
    utts = corpus.split(split)
    if not (0 <= args.index < len(utts)) or not (0 <= args.prompt_index < len(utts)):
        raise ValidationError(f"utterance index out of range for split of {len(utts)}")
    if args.index == args.prompt_index:
        raise ValidationError("prompt must be a different utterance than the target")
    seed = _resolve_seed(args.seed)
    target, prompt = utts[args.index], utts[args.prompt_index]
    request = pl.SynthesisRequest(
        phonemes=target.phonemes, prompt=prompt,
        temperature=args.temperature, top_k=args.top_k,
    )
    result = pl.synthesize(bundle, request, np.random.default_rng(seed))
    record = {
        "system": kind,
        "split": split,
        "index": args.index,
        "prompt_index": args.prompt_index,
        "seed": seed,
        "runaway": result.runaway,
        "generated_length": result.generated_length,
        "codes": result.codes.tolist(),
    }
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "a") as f:
        f.write(json.dumps(record) + "\n")
    frames = qz.rvq_decode(result.codes, bundle.quantizers.rvq)
    transcript = tw.oracle_transcribe(frames, bundle.world_spec)
    print(f"synthesized {result.codes.shape[0]} frames (runaway={result.runaway}); "
          f"oracle transcript {transcript} vs reference {target.phonemes}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="phonolm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("world", help="generate a synthetic corpus")
    w.add_argument("--spec", help="WorldSpec JSON file (defaults used otherwise)")
    w.add_argument("--out", required=True)
    w.add_argument("--n-train", type=int, default=500)
    w.add_argument("--n-test", type=int, default=40)
    w.add_argument("--seed", type=int)
    w.add_argument("--force", action="store_true")
    w.add_argument("--set", action="append", metavar="KEY=VALUE")
    w.set_defaults(func=cmd_world)

    q = sub.add_parser("quantize", help="fit phonetic codebook and acoustic RVQ")
    q.add_argument("--corpus", required=True)
    q.add_argument("--k-phonetic", type=int, default=64)
    q.add_argument("--k-codec", type=int, default=32)
    q.add_argument("--layers", type=int, default=8)
    q.add_argument("--iters", type=int, default=30)
    q.add_argument("--seed", type=int)
    q.add_argument("--out", required=True)
    q.add_argument("--force", action="store_true")
    q.set_defaults(func=cmd_quantize)

    t = sub.add_parser("train", help="train one model stage")
    t.add_argument("--mode", required=True, choices=pl.MODES)
    t.add_argument("--corpus", required=True)
    t.add_argument("--quantizers", required=True, help="path to quantizers.ckpt")
    t.add_argument("--config", help="TrainingConfig JSON")
    t.add_argument("--model-config", help="ModelConfig JSON overrides")
    t.add_argument("--seed", type=int)
    t.add_argument("--out", required=True)
    t.add_argument("--force", action="store_true")
    t.add_argument("--set", action="append", metavar="KEY=VALUE")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate bundles and write a comparison report")
    e.add_argument("--bundle", action="append", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--splits", default="clean,other")
    e.add_argument("--seeds", type=int, default=1, help="evaluation seed replicates per bundle")
    e.add_argument("--n-prompts", type=int, default=20)
    e.add_argument("--seed", type=int)
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--out", required=True)
    e.add_argument("--force", action="store_true")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("synth", help="synthesize one utterance from a bundle")
    s.add_argument("--bundle", required=True)
    s.add_argument("--corpus", required=True)
    s.add_argument("--system", choices=(pl.KIND_PROPOSED, pl.KIND_BASELINE))
    s.add_argument("--split", default="clean")
    s.add_argument("--index", type=int, required=True)
    s.add_argument("--prompt-index", type=int, required=True)
    s.add_argument("--temperature", type=float, default=1.0)
    s.add_argument("--top-k", type=int, default=8)
    s.add_argument("--seed", type=int)
    s.add_argument("--out", required=True, help="JSONL file to append the codes to")
    s.set_defaults(func=cmd_synth)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except (ValidationError, ContractError, tw.CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except pl.TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
