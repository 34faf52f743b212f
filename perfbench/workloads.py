"""The three workloads: set-up, one timed round, and the output checks.

Each workload drives phonolm the way a user does: subcommands go through
`cli.main` in-process, and public library functions are called where no
subcommand exists. Every round does identical work: the world, quantizer,
training and evaluation seeds are constants, so two runs differ only in how
fast the machine ran them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from phonolm import cli
from phonolm import evaluation as ev
from phonolm import model as md
from phonolm import pipeline as pl
from phonolm import quantizer as qz
from phonolm import tokenworld as tw

import checks
from tracer import patched

WORLD_SEED = 7  # phonolm world --seed: the WorldSpec seed and the corpus rng seed
QUANT_SEED = 7
TRAIN_SEED = 101
EVAL_SEED = 7
AR_INIT_SEED = 11
NAR_INIT_SEED = 12
# Lloyd rounds of the set-up quantizer fit (train, synth): training and
# decoding cost depend on the codebook sizes, not on how well they fit
SETUP_LLOYD_ITERS = 2


@dataclass(frozen=True)
class Size:
    n_train: int = 500
    n_test: int = 40
    train_steps: int = 8   # per mode
    n_prompts: int = 4     # per system and test split
    setup_reps: int = 3


FULL = Size()
# the same code path at a size that runs in seconds, for the benchmark's tests
SMALL = Size(n_train=40, n_test=8, train_steps=2, n_prompts=2, setup_reps=1)


class Capture:
    """Keeps the program's in-memory outputs that its files do not hold:
    fitted codebooks with their histories, and per-request synthesis results.
    Installed around every round, traced or not; it wraps three coarse calls."""

    def __init__(self):
        self.quantizers = []
        self.tasks = []

    @contextlib.contextmanager
    def installed(self):
        fit, evaluate, synth = pl.fit_corpus_quantizers, ev.evaluate_system, pl.synthesize_many

        @functools.wraps(fit)
        def fit_capture(*a, **k):
            q = fit(*a, **k)
            self.quantizers.append(q)
            return q

        @functools.wraps(evaluate)
        def evaluate_capture(bundle, corpus, split, *a, **k):
            task = {"bundle": bundle, "split": split, "requests": [], "seeds": [], "results": [], "done": False}
            self.tasks.append(task)
            out = evaluate(bundle, corpus, split, *a, **k)
            task["done"] = True
            return out

        @functools.wraps(synth)
        def synth_capture(bundle, requests, seeds, *a, **k):
            results = synth(bundle, requests, seeds, *a, **k)
            if self.tasks:
                self.tasks[-1].update(requests=list(requests), seeds=list(seeds), results=results)
            return results

        with patched(pl, "fit_corpus_quantizers", fit_capture), patched(ev, "evaluate_system", evaluate_capture), \
                patched(pl, "synthesize_many", synth_capture):
            yield self


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


@dataclass
class Round:
    stage_s: float
    attempted: int
    failed: int
    figures: dict      # stage figures a user reads, name -> (value, unit)
    work: dict         # work counts, identical in every round
    fingerprint: str   # digest of the round's outputs
    outputs: dict      # what the checks need


class Workload:
    name = ""  # as in BENCHMARK.json, which also says why the workload exists

    def __init__(self, work_dir: Path, size: Size = FULL):
        self.dir = Path(work_dir)
        self.size = size
        self.corpus_dir = self.dir / "corpus"
        self.quant_path = self.dir / "quant" / "quantizers.ckpt"
        self.corpus = None

    def _build_world(self) -> None:
        _setup_cli(["world", "--out", self.corpus_dir, "--seed", WORLD_SEED, "--n-train", self.size.n_train,
                    "--n-test", self.size.n_test, "--force"])
        self.corpus = tw.load_corpus(self.corpus_dir)

    def _fit_quantizers(self):
        _setup_cli(["quantize", "--corpus", self.corpus_dir, "--out", self.quant_path.parent, "--seed", QUANT_SEED,
                    "--iters", SETUP_LLOYD_ITERS, "--force"])
        return qz.load_quantizers(self.quant_path)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, capture: Capture) -> Round:
        raise NotImplementedError

    def check(self, last: Round) -> list:
        raise NotImplementedError


def _cli(argv) -> bool:
    return cli.main([str(a) for a in argv]) == cli.EXIT_OK


def _setup_cli(argv) -> None:
    if not _cli(argv):
        raise RuntimeError(f"set-up failed: phonolm {' '.join(map(str, argv))}")


class Quantize(Workload):
    name = "quantize"

    def setup(self):
        self._build_world()

    def round(self, capture):
        out = self.dir / "quant"
        t0 = time.perf_counter()
        ok = _cli(["quantize", "--corpus", self.corpus_dir, "--out", out, "--seed", QUANT_SEED, "--force"])
        t1 = time.perf_counter()
        tokenized = {}
        if ok:
            quant = qz.load_quantizers(out / "quantizers.ckpt")
            tokenized = {s: pl.tokenize_utterances(self.corpus.split(s), quant) for s in tw.SPLITS}
        t2 = time.perf_counter()
        fitted = capture.quantizers[-1] if capture.quantizers else None
        lloyd = fitted.phonetic.iterations_run + sum(b.iterations_run for b in fitted.rvq.layers) if fitted else 0
        frames = sum(len(t.phonetic) + len(t.codes) for toks in tokenized.values() for t in toks)
        arrays = [a for toks in tokenized.values() for t in toks for a in (t.phonetic, t.codes)]
        fingerprint = hashlib.sha256(
            (_digest([out / "quantizers.ckpt"]) if ok else "").encode() + b"".join(a.tobytes() for a in arrays)
        ).hexdigest()
        return Round(
            stage_s=t2 - t0,
            attempted=1 + len(tw.SPLITS),
            failed=(0 if ok else 1) + len(tw.SPLITS) - len(tokenized),
            figures={"quantize_s": (t1 - t0, "s"), "tokenize_s": (t2 - t1, "s")},
            work={"lloyd_rounds": lloyd, "tokenized_frames": frames},
            fingerprint=fingerprint,
            outputs={"quant": fitted, "tokenized": tokenized, "out": out},
        )

    def check(self, last):
        o = last.outputs
        if o["quant"] is None or len(o["tokenized"]) != len(tw.SPLITS):
            return ["quantize round produced no quantizers"]
        manifest = json.loads((o["out"] / "manifest.json").read_text())
        reported = json.loads((o["out"] / "quantizers.json").read_text())
        return checks.check_quantize(self.corpus, o["quant"], manifest["params"]["iters"], o["tokenized"], reported)


class Train(Workload):
    name = "train"

    _AR_MODES = (pl.MODE_PROPOSED_AR, pl.MODE_BASELINE_AR)

    def setup(self):
        self._build_world()
        self.quant = self._fit_quantizers()

    def _files(self, mode):
        """(checkpoint, losses CSV) that `phonolm train --mode` writes."""
        out = self.dir / "bundle"
        return out / cli._MODE_FILES[mode], out / f"losses_{mode}.csv"

    def round(self, capture):
        out = self.dir / "bundle"
        secs, ok = {}, {}
        for mode in pl.MODES:
            t0 = time.perf_counter()
            ok[mode] = _cli(["train", "--mode", mode, "--corpus", self.corpus_dir, "--quantizers", self.quant_path,
                             "--out", out, "--seed", TRAIN_SEED, "--set", f"steps={self.size.train_steps}", "--force"])
            secs[mode] = time.perf_counter() - t0
        losses = {}
        for mode in pl.MODES:
            if ok[mode]:
                lines = self._files(mode)[1].read_text().splitlines()[1:]
                losses[mode] = [float(line.split(",")[1]) for line in lines]
        steps = self.size.train_steps
        ar_s = sum(secs[m] for m in self._AR_MODES)
        nar_s = sum(secs[m] for m in pl.MODES if m not in self._AR_MODES)
        files = [f for m in pl.MODES if ok[m] for f in self._files(m)]
        return Round(
            stage_s=sum(secs.values()),
            attempted=len(pl.MODES),
            failed=sum(not v for v in ok.values()),
            figures={"train_ar_steps_per_s": (2 * steps / ar_s, "step/s"),
                     "train_nar_steps_per_s": (2 * steps / nar_s, "step/s")},
            work={"train_steps": sum(len(v) for v in losses.values())},
            fingerprint=_digest(files),
            outputs={"losses": losses},
        )

    def check(self, last):
        losses = last.outputs["losses"]
        if len(losses) != len(pl.MODES):
            return ["a train call failed"]
        fails = []
        tokenized = pl.tokenize_utterances(self.corpus.train[:4], self.quant)
        for mode in pl.MODES:
            model = md.load_model(self._files(mode)[0])
            fails += checks.check_losses(mode, losses[mode], model.output_vocab, self.size.train_steps)
            fails += checks.check_gradient(mode, model, tokenized)
        return fails


class Synth(Workload):
    name = "synth"
    TASKS = 4  # two systems x two test splits

    def setup(self):
        self._build_world()
        quant = self._fit_quantizers()
        spec = self.corpus.world_spec
        cfg = pl.default_model_config(spec, quant)
        systems = (
            (pl.KIND_PROPOSED, md.STREAM_PHONETIC, md.VARIANT_PROPOSED),
            (pl.KIND_BASELINE, md.STREAM_CODEC, md.VARIANT_BASELINE),
        )
        for kind, stream, variant in systems:
            bundle = pl.SystemBundle(
                world_spec=spec, quantizers=quant, kind=kind,
                ar=md.build_ar_model(cfg, stream, seed=AR_INIT_SEED),
                nar=md.build_nar_model(cfg, variant, seed=NAR_INIT_SEED),
            )
            pl.save_bundle(bundle, self.dir / kind)

    def round(self, capture):
        out = self.dir / "eval"
        t0 = time.perf_counter()
        ok = _cli(["eval", "--bundle", self.dir / pl.KIND_PROPOSED, "--bundle", self.dir / pl.KIND_BASELINE,
                   "--corpus", self.corpus_dir, "--splits", "clean,other", "--n-prompts", self.size.n_prompts,
                   "--seed", EVAL_SEED, "--out", out, "--force"])
        stage_s = time.perf_counter() - t0
        tasks = capture.tasks
        results = [r for t in tasks for r in t["results"]]
        frames = sum(r.codes.shape[0] for r in results)
        return Round(
            stage_s=stage_s,
            attempted=self.TASKS,
            failed=self.TASKS - sum(t["done"] for t in tasks),
            figures={"synth_frames_per_s": (frames / stage_s, "frame/s")},
            work={"requests": len(results), "tokens": sum(r.generated_length for r in results), "frames": frames},
            fingerprint=_digest([out / "report.json"]) if ok else "",
            outputs={"tasks": tasks, "out": out, "ok": ok},
        )

    def check(self, last):
        o = last.outputs
        if not o["ok"] or len(o["tasks"]) != self.TASKS:
            return ["phonolm eval did not complete all four tasks"]
        report = json.loads((o["out"] / "report.json").read_text())
        return checks.check_synth(o["tasks"], report)


WORKLOADS = {w.name: w for w in (Quantize, Train, Synth)}

