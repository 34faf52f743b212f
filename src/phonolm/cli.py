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
`manifest_M.json`: a system's two stages train into one DIR apart. A
stage refuses a DIR trained against other quantizers or another world,
even with --force, which replaces only the stage's own checkpoint.
Exit codes: 0 success, 2 validation error (bad arguments or a malformed
corpus), 3 runtime/training failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
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


def _check_out(out: Path, is_dir: bool) -> None:
    """Raise ValidationError unless `--out` can be written as a directory
    (`is_dir`) or as a file: it is one if it exists, and else its nearest
    existing ancestor is a directory."""
    held = next(p for p in (out, *out.parents) if p.exists())  # "." or the root at the latest
    if held.is_dir() != (is_dir or held != out):
        raise ValidationError(f"--out {out}: {held} is {'' if held.is_dir() else 'not '}a directory")


def _prepare_out(path: str, force: bool) -> Path:
    out = Path(path)
    _check_out(out, is_dir=True)
    if out.exists() and any(out.iterdir()) and not force:
        raise ValidationError(f"output directory {out} is not empty (use --force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _corpus_files(corpus_dir: Path) -> list:
    return [corpus_dir / n for n in tw.CORPUS_FILES.values()]


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


def _config(cls, path, pairs=None, seed=None, base=None):
    """`cls` from command-line input, and the `--set` overrides parsed.

    Each source overrides the ones before it: the `base` dict, the JSON
    file at `path`, the `--set` KEY=VALUE `pairs` (a value that is not JSON
    is a string), then `seed`. A key the config does not have, or a value
    of the wrong type, is a bad argument; so is a file that cannot be read,
    is not JSON, or holds something other than an object."""
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    try:
        loaded = json.loads(Path(path).read_text()) if path else {}
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ValidationError(f"bad {cls.__name__}: cannot read {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValidationError(f"bad {cls.__name__}: {path} holds a JSON {type(loaded).__name__}, not an object")
    values = {**(base or {}), **loaded, **overrides}
    if seed is not None:
        values["seed"] = seed
    try:
        return cls(**values), overrides
    except TypeError as exc:
        raise ValidationError(f"bad {cls.__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_world(args) -> int:
    spec, overrides = _config(tw.WorldSpec, args.spec, args.set, args.seed)
    out = _prepare_out(args.out, args.force)
    corpus = tw.build_corpus(spec, args.n_train, args.n_test, np.random.default_rng(spec.seed))
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

    _write_manifest(
        out / "manifest.json", "world",
        params={"spec": args.spec, "n_train": args.n_train, "n_test": args.n_test,
                "overrides": overrides, "world_spec": asdict(spec)},
        input_files=[args.spec] if args.spec else [],
        output_files=list(tw.CORPUS_FILES.values()),
        args=args,
        diagnostics={"raw_frame_oracle_per": floor},
    )
    return EXIT_OK


def cmd_quantize(args) -> int:
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
        input_files=_corpus_files(corpus_dir),
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
    if not quant_path.is_file():
        raise ValidationError(f"missing quantizers checkpoint file: {quant_path}")
    out = Path(args.out)  # `save_stages` makes it, so a run that fails leaves no empty dir
    _check_out(out, is_dir=True)
    config, overrides = _config(pl.TrainingConfig, args.config, args.set, args.seed)

    corpus = tw.load_corpus(corpus_dir)
    quant = qz.load_quantizers(quant_path)
    base = asdict(pl.default_model_config(corpus.world_spec, quant))
    model_config, _ = _config(md.ModelConfig, args.model_config, base=base)

    mode = pl.MODES[args.mode]
    if (out / mode.checkpoint).exists() and not args.force:
        raise ValidationError(f"{out / mode.checkpoint} exists (use --force to overwrite)")
    # the other stages in `out` were trained against its quantizers and world,
    # which this stage would rewrite; --force replaces a stage, not those
    held = out / pl.QUANTIZERS
    if held.exists() and _sha256(held) != _sha256(quant_path):
        raise ValidationError(f"{held} is not {quant_path}: {out} was trained against other quantizers")
    for kind in pl.SYSTEMS:
        meta_path = out / pl.bundle_json(kind)
        if meta_path.exists() and pl.bundle_world(out, kind) != corpus.world_spec:
            raise ValidationError(f"{meta_path} names another world than {corpus_dir}'s")

    model, losses = pl.train_mode(args.mode, corpus, quant, config, model_config)
    written = pl.save_stages(out, corpus.world_spec, quant, {mode: model})
    losses_name = f"losses_{args.mode}.csv"
    rows = "".join(f"{i},{l!r}\n" for i, l in enumerate(losses))
    checkpoint.write_atomic(out / losses_name, "step,loss\n" + rows)

    print(f"{args.mode}: {config.steps} steps, loss {losses[0]:.4f} -> {losses[-1]:.4f}; "
          f"saved {out / mode.checkpoint}")
    input_files = _corpus_files(corpus_dir) + pl.with_sidecars([quant_path])
    input_files += [p for p in (args.config, args.model_config) if p]
    _write_manifest(
        out / f"manifest_{args.mode}.json", "train",
        params={"mode": args.mode, "corpus": str(corpus_dir),
                "quantizers": str(quant_path), "training": asdict(config),
                "model_config": asdict(model_config), "overrides": overrides},
        input_files=input_files,
        output_files=written + [losses_name],
        args=args,
        diagnostics={"final_loss": losses[-1]},
    )
    return EXIT_OK


def _eval_task(corpus, splits, n_prompts, bundle_dir, kind, seed) -> ev.EvalReport:
    """Score one (bundle dir, kind, seed) on every split in `splits`, loading the bundle once."""
    bundle = pl.load_bundle(bundle_dir, kind)
    report = ev.EvalReport(system=kind, seed=seed)
    for split in splits:
        report.splits[split] = ev.evaluate_system(bundle, corpus, split, n_prompts, seed)
    return report


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

    systems = {}  # kind -> bundle_dir, in argument order
    for bundle_dir in args.bundle:
        kinds = pl.available_bundle_kinds(bundle_dir)
        if not kinds:
            missing = {k: pl.missing_bundle_files(bundle_dir, k) for k in pl.SYSTEMS}
            raise ValidationError(f"no complete bundle in {bundle_dir}; missing {missing}")
        for kind in kinds:  # one kind from two dirs (or one dir named twice) would pool as seed replicates
            if kind in systems:
                raise ValidationError(f"--bundle {systems[kind]} and {bundle_dir} both hold a {kind} system")
            systems[kind] = bundle_dir

    corpus = tw.load_corpus(corpus_dir)
    ev.check_scorable(corpus, splits)
    out = _prepare_out(args.out, args.force)
    for name in ev.REPORT_FILES:  # an earlier run's reports would pass for this one's if every task crashes
        (out / name).unlink(missing_ok=True)
    tasks = [(bundle_dir, kind, args.seed + rep) for kind, bundle_dir in systems.items() for rep in range(args.seeds)]
    reports, crashed = [], []
    with contextlib.ExitStack() as stack:
        # --jobs 1 runs the tasks in this process, where the benchmark captures their results
        pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs)) if args.jobs > 1 else None
        run_task = functools.partial(_eval_task, corpus, splits, args.n_prompts)
        for task, future in [(t, pool.submit(run_task, *t) if pool else None) for t in tasks]:
            try:
                reports.append(future.result() if future else run_task(*task))
            except Exception as exc:  # noqa: BLE001 - report and flag via exit code
                crashed.append(task)
                print(f"synthesis crashed for {task}: {exc}", file=sys.stderr)

    if reports:
        print(ev.write_report(reports, out))

    input_files = _corpus_files(corpus_dir)
    for kind, bundle_dir in systems.items():  # a file a crashed task missed is left out
        input_files += [p for p in (Path(bundle_dir) / n for n in pl.bundle_files(kind)) if p.exists()]
    _write_manifest(
        out / "manifest.json", "eval",
        params={"bundles": list(args.bundle), "corpus": str(corpus_dir),
                "splits": args.splits, "seeds": args.seeds, "seed": args.seed,
                "n_prompts": args.n_prompts, "jobs": args.jobs},
        input_files=input_files,
        output_files=list(ev.REPORT_FILES) if reports else [],
        args=args,
    )
    if crashed:
        print(f"{len(crashed)} synthesis task(s) crashed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_synth(args) -> int:
    out_path = Path(args.out)
    _check_out(out_path, is_dir=False)
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


def _count(least: int):
    """Parser type of a count flag (every `--seed` among them): a value below
    `least` stops the parser before any output exists."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return count


def _temperature(text: str) -> float:
    """Parser type of `--temperature`: a finite number > 0."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="phonolm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("world", help="generate a synthetic corpus")
    w.add_argument("--spec", help="WorldSpec JSON file (defaults used otherwise)")
    w.add_argument("--out", required=True)
    w.add_argument("--n-train", type=_count(1), default=500)
    w.add_argument("--n-test", type=_count(0), default=40)
    w.add_argument("--seed", type=_count(0), help="overrides the spec's seed (default 0)")
    w.add_argument("--force", action="store_true")
    w.add_argument("--set", action="append", metavar="KEY=VALUE")
    w.set_defaults(func=cmd_world)

    q = sub.add_parser("quantize", help="fit phonetic codebook and acoustic RVQ")
    q.add_argument("--corpus", required=True)
    q.add_argument("--k-phonetic", type=_count(1), default=64)
    q.add_argument("--k-codec", type=_count(1), default=32)
    q.add_argument("--layers", type=_count(1), default=8)
    q.add_argument("--iters", type=_count(0), default=30)
    q.add_argument("--seed", type=_count(0), default=0)
    q.add_argument("--out", required=True)
    q.add_argument("--force", action="store_true")
    q.set_defaults(func=cmd_quantize)

    t = sub.add_parser("train", help="train one model stage")
    t.add_argument("--mode", required=True, choices=pl.MODES)
    t.add_argument("--corpus", required=True)
    t.add_argument("--quantizers", required=True, help=f"path to a quantize run's {pl.QUANTIZERS}")
    t.add_argument("--config", help="TrainingConfig JSON")
    t.add_argument("--model-config", help="ModelConfig JSON overrides")
    t.add_argument("--seed", type=_count(0), help="overrides the config's seed (default 0)")
    t.add_argument("--out", required=True)
    t.add_argument("--force", action="store_true")
    t.add_argument("--set", action="append", metavar="KEY=VALUE")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate bundles and write a comparison report")
    e.add_argument("--bundle", action="append", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--splits", default="clean,other")
    e.add_argument("--seeds", type=_count(1), default=1, help="evaluation seed replicates per bundle")
    e.add_argument("--n-prompts", type=_count(1), default=20)
    e.add_argument("--seed", type=_count(0), default=0)
    e.add_argument("--jobs", type=_count(1), default=1)
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
    s.add_argument("--temperature", type=_temperature, default=1.0)
    s.add_argument("--top-k", type=_count(1), default=8)
    s.add_argument("--seed", type=_count(0), default=0)
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
