"""Operator surface: generate corpora, fit quantizers, train systems,
synthesize, and render comparison reports.

`world`, `quantize` and `eval` write manifest.json into their output
directory; `train --mode M` writes manifest_M.json, so the stages trained
into one DIR keep one record each. A manifest holds the run's `params`
(seeds included), the sha256 of every file it read (`inputs`) and wrote
(`outputs`), and a `config_hash` over the subcommand, params and inputs;
a file's writer is the run whose `outputs` list the same hash. Outside that
hash it holds the environment (numpy, BLAS threads, the allocator
thresholds `main` applied), the subcommand's wall time and minor page
faults, and the process's peak resident set so far. `synth` writes no
manifest: it appends one JSON line per run to its --out file.
`train --mode M --out DIR` writes, as `pipeline.save_bundle` does, M's
checkpoint and its .json sidecar (model config and TrainingConfig), the
quantizers and `{system}_bundle.json`, then `losses_M.csv` and
`manifest_M.json`: a system's two stages train into one DIR apart.
Exit codes: 0 success, 2 validation error (bad arguments or a malformed
corpus), 3 runtime/training failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import checkpoint
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


# mallopt parameter numbers (malloc.h) and their values: glibc's largest mmap
# threshold on 64-bit (mallopt rejects more), and a trim threshold above what
# one training step's tape frees at once (56-96 MB)
_MALLOC_POLICY = (("M_MMAP_THRESHOLD", -3, 32 << 20), ("M_TRIM_THRESHOLD", -1, 256 << 20))


class ValidationError(ValueError):
    pass


def keep_freed_pages() -> dict | None:
    """Make glibc's malloc keep freed memory in the process; return the
    thresholds applied ({name: bytes}), or None where nothing was applied.

    By default glibc serves each block above a dynamic threshold (from
    128 KiB) with its own mmap and trims the heap top once its free space
    passes twice that, so the activations a training step frees go back to
    the kernel and the next step faults fresh pages in. Both thresholds are
    set: setting either one stops the dynamic adjustment, which would leave
    the other at its start value. The policy is process-wide and applying it
    again changes nothing; elsewhere than glibc this does nothing. Results
    do not depend on it.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return None
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = {}
    for name, param, value in _MALLOC_POLICY:
        if mallopt(param, value) != 1:
            break
        applied[name] = value
    return applied or None


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


def _write_manifest(path: Path, subcommand: str, params: dict, input_files, output_files, args,
                    diagnostics=None) -> None:
    """Write the run's record to `path`; `output_files` are names in its directory.

    args: the parsed arguments, with main's snapshot taken before dispatch."""
    inputs = {str(p): _sha256(Path(p)) for p in sorted(str(x) for x in input_files)}
    payload = {"subcommand": subcommand, "params": params, "inputs": inputs}
    config_hash = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "subcommand": subcommand,
        "params": params,
        "inputs": inputs,
        "outputs": {str(Path(p).name): _sha256(path.parent / Path(p).name) for p in output_files},
        "config_hash": config_hash,
        "created_unix": int(time.time()),
        # trained weights can differ in their last bits with the BLAS thread count
        "environment": {
            "numpy": np.__version__,
            **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "malloc": args.malloc,
        },
        # ru_maxrss is the process's peak so far, which in a process that ran
        # other work before this subcommand may come from that work
        "resources": {
            "wall_s": round(time.perf_counter() - args.started, 3),
            "minor_faults": usage.ru_minflt - args.minor_faults_at_start,
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        },
    }
    if diagnostics:
        manifest["diagnostics"] = diagnostics
    checkpoint.write_atomic(path, json.dumps(manifest, indent=2) + "\n")


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


def _build_config(cls, values: dict):
    """cls(**values) from command-line input: a key the config does not
    have, or a value of the wrong type, is a bad argument."""
    try:
        return cls(**values)
    except TypeError as exc:
        raise ValidationError(f"bad {cls.__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_world(args) -> int:
    overrides = _parse_overrides(args.set)
    spec_dict = _load_json_config(args.spec, overrides)
    spec_dict["seed"] = args.seed
    spec = _build_config(tw.WorldSpec, spec_dict)
    if args.n_train <= 0:
        raise ValidationError("--n-train must be positive")
    if args.n_test < 0:
        raise ValidationError("--n-test must be >= 0")
    out = _prepare_out(args.out, args.force)
    corpus = tw.build_corpus(spec, args.n_train, args.n_test, np.random.default_rng(args.seed))
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
        out / "manifest.json", "world",
        params={"spec": args.spec, "n_train": args.n_train, "n_test": args.n_test,
                "overrides": overrides, "world_spec": spec.to_dict()},
        input_files=[args.spec] if args.spec else [],
        output_files=outputs,
        args=args,
        diagnostics={"raw_frame_oracle_per": floor},
    )
    return EXIT_OK


def cmd_quantize(args) -> int:
    for flag, least in (("k_phonetic", 1), ("k_codec", 1), ("layers", 1), ("iters", 0)):
        if getattr(args, flag) < least:
            raise ValidationError(f"--{flag.replace('_', '-')} must be >= {least}")
    corpus_dir = Path(args.corpus)
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
        n_layers=args.layers, max_iters=args.iters, seed=args.seed,
    )
    qz.save_quantizers(quant, out / pl.QUANTIZERS)
    print(f"quantizers written to {out}: K={args.k_phonetic} phonetic "
          f"(distortion {quant.phonetic.final_distortion:.5f}), "
          f"{args.layers}x{args.k_codec} RVQ "
          f"(residual energy {quant.rvq.residual_energy[-1]:.5f})")
    _write_manifest(
        out / "manifest.json", "quantize",
        params={"corpus": str(corpus_dir), "k_phonetic": args.k_phonetic,
                "k_codec": args.k_codec, "layers": args.layers, "iters": args.iters,
                "seed": args.seed},
        input_files=[corpus_dir / "world.json", corpus_dir / "train.jsonl"],
        output_files=pl.with_sidecars([pl.QUANTIZERS]),
        args=args,
        diagnostics={
            "phonetic_distortion": quant.phonetic.final_distortion,
            "rvq_residual_energy": quant.rvq.residual_energy,
        },
    )
    return EXIT_OK


_MODE_FILES = {name: mode.checkpoint for name, mode in pl.MODES.items()}  # read by perfbench


def cmd_train(args) -> int:
    corpus_dir = Path(args.corpus)
    quant_path = Path(args.quantizers)
    if not quant_path.exists():
        raise ValidationError(f"missing quantizers checkpoint: {quant_path}")
    overrides = _parse_overrides(args.set)
    cfg_dict = _load_json_config(args.config, overrides)
    if args.seed is not None:  # --seed, then the config's seed, then TrainingConfig's 0
        cfg_dict["seed"] = args.seed
    config = _build_config(pl.TrainingConfig, cfg_dict)

    corpus = tw.load_corpus(corpus_dir)
    quant = qz.load_quantizers(quant_path)
    base = pl.default_model_config(corpus.world_spec, quant).to_dict()
    model_config = _build_config(md.ModelConfig, base | _load_json_config(args.model_config, {}))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mode = pl.MODES[args.mode]
    if (out / mode.checkpoint).exists() and not args.force:
        raise ValidationError(f"{out / mode.checkpoint} exists (use --force to overwrite)")

    model, losses = pl.train_mode(args.mode, corpus, quant, config, model_config)
    written = pl.save_stages(out, corpus.world_spec, quant, {mode: model})
    losses_name = f"losses_{args.mode}.csv"
    rows = "".join(f"{i},{l!r}\n" for i, l in enumerate(losses))
    checkpoint.write_atomic(out / losses_name, "step,loss\n" + rows)

    print(f"{args.mode}: {config.steps} steps, loss {losses[0]:.4f} -> {losses[-1]:.4f}; "
          f"saved {out / mode.checkpoint}")
    _write_manifest(
        out / f"manifest_{args.mode}.json", "train",
        params={"mode": args.mode, "corpus": str(corpus_dir),
                "quantizers": str(quant_path), "training": config.to_dict(),
                "model_config": model_config.to_dict(), "overrides": overrides},
        input_files=[corpus_dir / "world.json", corpus_dir / "train.jsonl", quant_path],
        output_files=written + [losses_name],
        args=args,
        diagnostics={"final_loss": losses[-1]},
    )
    return EXIT_OK


def _eval_task(corpus, splits, n_prompts, bundle_dir, kind, seed) -> ev.EvalReport:
    """Score one (bundle dir, kind, seed) on every split in `splits`.

    Loads the bundle once; the corpus is the one `cmd_eval` loaded, handed
    over in-process at --jobs 1 and pickled with the task, cut down by
    `_scored_part`, at --jobs > 1.
    """
    bundle = pl.load_bundle(bundle_dir, kind)
    report = ev.EvalReport(system=kind, seed=seed)
    for split in splits:
        report.splits[split] = ev.evaluate_system(bundle, corpus, split, n_prompts, seed)
    return report


def _scored_part(corpus: tw.Corpus, splits) -> tw.Corpus:
    """What `evaluate_system` reads of `corpus` when it scores `splits`: those
    splits whole, the world, and of the train split only its speaker set
    (the zero-shot check), kept as one utterance per speaker."""
    first_of_speaker = {}
    for u in corpus.train:
        first_of_speaker.setdefault(u.speaker_id, u)
    unscored = {name: [] for name in tw.SPLITS if name != "train" and name not in splits}
    return dataclasses.replace(corpus, train=list(first_of_speaker.values()), **unscored)


def cmd_eval(args) -> int:
    corpus_dir = Path(args.corpus)
    splits = []
    for flag in args.splits.split(","):
        flag = flag.strip()
        if flag not in _SPLIT_FLAGS:
            raise ValidationError(f"unknown split {flag!r}; expected clean,other")
        if _SPLIT_FLAGS[flag] in splits:
            raise ValidationError(f"--splits names {flag!r} twice")
        splits.append(_SPLIT_FLAGS[flag])
    for flag in ("n_prompts", "seeds", "jobs"):
        if getattr(args, flag) < 1:
            raise ValidationError(f"--{flag.replace('_', '-')} must be >= 1")

    resolved = [Path(b).resolve() for b in args.bundle]
    if len(set(resolved)) < len(resolved):
        raise ValidationError(f"--bundle names one directory twice: {', '.join(args.bundle)}")
    systems = []  # (bundle_dir, kind)
    for bundle_dir in args.bundle:
        kinds = pl.available_bundle_kinds(bundle_dir)
        if not kinds:
            missing = {k: pl.missing_bundle_files(bundle_dir, k) for k in pl.SYSTEMS}
            raise ValidationError(f"no complete bundle in {bundle_dir}; missing {missing}")
        systems.extend((bundle_dir, k) for k in kinds)

    corpus = tw.load_corpus(corpus_dir)
    ev.check_scorable(corpus, splits)
    out = _prepare_out(args.out, args.force)
    tasks = [(bundle_dir, kind, args.seed + rep) for bundle_dir, kind in systems for rep in range(args.seeds)]
    reports, crashed = [], []
    with contextlib.ExitStack() as stack:
        # --jobs 1 runs the tasks in this process, where the benchmark captures their results
        pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs)) if args.jobs > 1 else None
        # every task sent to a worker pickles its corpus: send only what it reads
        task_corpus = _scored_part(corpus, splits) if pool else corpus
        run_task = functools.partial(_eval_task, task_corpus, splits, args.n_prompts)
        for task, future in [(t, pool.submit(run_task, *t) if pool else None) for t in tasks]:
            try:
                reports.append(future.result() if future else run_task(*task))
            except Exception as exc:  # noqa: BLE001 - report and flag via exit code
                crashed.append(task)
                print(f"synthesis crashed for {task}: {exc}", file=sys.stderr)

    if reports:
        print(ev.write_report(reports, out))

    input_files = [corpus_dir / "world.json"] + [corpus_dir / f"{s}.jsonl" for s in splits]
    for bundle_dir, kind in systems:  # a file a crashed task missed is left out
        input_files += [p for p in (Path(bundle_dir) / n for n in pl.bundle_files(kind)) if p.exists()]
    _write_manifest(
        out / "manifest.json", "eval",
        params={"bundles": list(args.bundle), "corpus": str(corpus_dir),
                "splits": args.splits, "seeds": args.seeds, "seed": args.seed,
                "n_prompts": args.n_prompts, "jobs": args.jobs},
        input_files=input_files,
        output_files=[p.name for p in out.iterdir() if p.name != "manifest.json"],
        args=args,
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
    pl.check_corpus_world(bundle, corpus)
    split = _SPLIT_FLAGS.get(args.split, args.split)
    utts = corpus.split(split)
    if not (0 <= args.index < len(utts)) or not (0 <= args.prompt_index < len(utts)):
        raise ValidationError(f"utterance index out of range for split of {len(utts)}")
    if args.index == args.prompt_index:
        raise ValidationError("prompt must be a different utterance than the target")
    target, prompt = utts[args.index], utts[args.prompt_index]
    request = pl.SynthesisRequest(
        phonemes=target.phonemes, prompt=prompt,
        temperature=args.temperature, top_k=args.top_k,
    )
    (result,) = pl.synthesize_many(bundle, [request], [args.seed])
    record = {
        "system": kind,
        "split": split,
        "index": args.index,
        "prompt_index": args.prompt_index,
        "seed": args.seed,
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


def _seed(text: str) -> int:
    """Type of every `--seed`: a bad seed stops the parser before any output exists."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="phonolm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("world", help="generate a synthetic corpus")
    w.add_argument("--spec", help="WorldSpec JSON file (defaults used otherwise)")
    w.add_argument("--out", required=True)
    w.add_argument("--n-train", type=int, default=500)
    w.add_argument("--n-test", type=int, default=40)
    w.add_argument("--seed", type=_seed, default=0)
    w.add_argument("--force", action="store_true")
    w.add_argument("--set", action="append", metavar="KEY=VALUE")
    w.set_defaults(func=cmd_world)

    q = sub.add_parser("quantize", help="fit phonetic codebook and acoustic RVQ")
    q.add_argument("--corpus", required=True)
    q.add_argument("--k-phonetic", type=int, default=64)
    q.add_argument("--k-codec", type=int, default=32)
    q.add_argument("--layers", type=int, default=8)
    q.add_argument("--iters", type=int, default=30)
    q.add_argument("--seed", type=_seed, default=0)
    q.add_argument("--out", required=True)
    q.add_argument("--force", action="store_true")
    q.set_defaults(func=cmd_quantize)

    t = sub.add_parser("train", help="train one model stage")
    t.add_argument("--mode", required=True, choices=pl.MODES)
    t.add_argument("--corpus", required=True)
    t.add_argument("--quantizers", required=True, help=f"path to a quantize run's {pl.QUANTIZERS}")
    t.add_argument("--config", help="TrainingConfig JSON")
    t.add_argument("--model-config", help="ModelConfig JSON overrides")
    t.add_argument("--seed", type=_seed, help="overrides the config's seed (default 0)")
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
    e.add_argument("--seed", type=_seed, default=0)
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--out", required=True)
    e.add_argument("--force", action="store_true")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("synth", help="synthesize one utterance from a bundle")
    s.add_argument("--bundle", required=True)
    s.add_argument("--corpus", required=True)
    s.add_argument("--system", choices=pl.SYSTEMS)
    s.add_argument("--split", default="clean")
    s.add_argument("--index", type=int, required=True)
    s.add_argument("--prompt-index", type=int, required=True)
    s.add_argument("--temperature", type=float, default=1.0)
    s.add_argument("--top-k", type=int, default=8)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out", required=True, help="JSONL file to append the codes to")
    s.set_defaults(func=cmd_synth)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.malloc = keep_freed_pages()
    args.started = time.perf_counter()
    args.minor_faults_at_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        return args.func(args)
    except (ValidationError, ContractError, tw.CorpusError, checkpoint.CheckpointError) as exc:
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
