#!/usr/bin/env python3
"""Print the sha256 of every file a small end-to-end phonolm run writes.

    python3 tools/output_digests.py <src dir> [<other src dir>] <work dir>

<src dir> is the directory that holds the `phonolm` package (a checkout's
`src`); <work dir> is where a temporary run directory is made and removed
again. In it the script runs, through `python -m phonolm.cli`:

    world --n-train 60 --n-test 12 --seed 7
    quantize --iters 4                            (into quant/, which training uses)
    quantize                                      (at its default --iters, into quant_default/)
    train --mode <m> --set steps=<n> --seed 101   (all four modes, one bundle dir;
                                                  n = 20 for AR stages, 12 for NAR;
                                                  baseline_nar also reads --model-config
                                                  model_baseline_nar.json)
    eval --n-prompts 6 --seeds 2                  (serial, into eval/)
    eval --n-prompts 6 --seeds 2 --jobs 2         (worker processes, into eval_jobs2/)
    synth --index 0 --prompt-index 4 --seed 3     (the proposed system, split clean)
    synth --index 0 --prompt-index 4 --seed 3 --temperature 0.5 --top-k 3
                                                  (appended to the same JSONL)

and prints one `<sha256>  <path>` line per output file except the
manifests (`manifest.json`, and the `manifest_<mode>.json` each train stage
writes), which hold paths and wall times. Two checkouts that
give the same lines at one BLAS thread count (`OPENBLAS_NUM_THREADS`, read
from the environment) wrote the same bytes: corpus, quantizers,
checkpoints, `losses_*.csv`, the serial and the `--jobs 2` eval reports
and the synth JSONL, so the digests cover synthesis in worker processes
as well as in the calling one, and sampling at the default and at other
--temperature and --top-k values. The second quantize runs each fit's Lloyd
rounds to its fixpoint or the default cap, so the digests cover the
quantizer's bound-pruned rounds well past the fourth. The AR and NAR
stages train with different budgets, as the stages of one bundle may, so
the digests also show where each stage's training record is kept. The
baseline NAR's model config is merged from a file, written into the run
directory, that restates the world's phoneme vocab (32) and halves d_ff
(256), so the digests cover the merge of a --model-config file and the
check of the fields the world and the codecs fix.

Given a second src dir, the script runs the recipe on both, prints the
paths whose digests differ (or that only one run wrote) and exits 1 if
there is any, 0 if every file is the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN_STEPS = {"proposed_ar": 20, "nar": 12, "baseline_ar": 20, "baseline_nar": 12}


def run_recipe(src: Path, root: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}

    def phonolm(*args):
        subprocess.run([sys.executable, "-m", "phonolm.cli", *args], cwd=root, env=env,
                       check=True, stdout=subprocess.DEVNULL)

    phonolm("world", "--out", "world", "--n-train", "60", "--n-test", "12", "--seed", "7")
    phonolm("quantize", "--corpus", "world", "--out", "quant", "--iters", "4")
    phonolm("quantize", "--corpus", "world", "--out", "quant_default")
    (root / "model_baseline_nar.json").write_text(json.dumps({"phoneme_vocab": 32, "d_ff": 256}))
    for mode, steps in TRAIN_STEPS.items():
        extra = ["--model-config", "model_baseline_nar.json"] if mode == "baseline_nar" else []
        phonolm("train", "--mode", mode, "--corpus", "world", "--quantizers", "quant/quantizers.ckpt",
                "--out", "bundle", "--set", f"steps={steps}", "--seed", "101", *extra)
    for out, jobs in (("eval", "1"), ("eval_jobs2", "2")):
        phonolm("eval", "--bundle", "bundle", "--corpus", "world", "--out", out,
                "--n-prompts", "6", "--seeds", "2", "--jobs", jobs)
    for sampling in ([], ["--temperature", "0.5", "--top-k", "3"]):
        phonolm("synth", "--bundle", "bundle", "--corpus", "world", "--index", "0", "--prompt-index", "4",
                "--seed", "3", *sampling, "--out", "synth/codes.jsonl")


def digests(root: Path) -> list:
    return [
        (hashlib.sha256(p.read_bytes()).hexdigest(), p.relative_to(root).as_posix())
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.match("manifest*.json")
    ]


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    *srcs, work = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "phonolm" / "cli.py").is_file():
            print(f"no phonolm package in {src}", file=sys.stderr)
            return 2
    work.mkdir(parents=True, exist_ok=True)
    listings = []
    for src in srcs:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            run_recipe(src, Path(tmp))
            listings.append(digests(Path(tmp)))
    if len(listings) == 1:
        for digest, name in listings[0]:
            print(f"{digest}  {name}")
        return 0
    first, second = ({name: digest for digest, name in listing} for listing in listings)
    differ = sorted(name for name in first.keys() | second.keys() if first.get(name) != second.get(name))
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(first.keys() | second.keys())} files differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
