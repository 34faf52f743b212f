#!/usr/bin/env python3
"""Print the sha256 of every file a small end-to-end phonolm run writes.

    python3 tools/output_digests.py <src dir> <work dir>

<src dir> is the directory that holds the `phonolm` package (a checkout's
`src`); <work dir> is where a temporary run directory is made and removed
again. In it the script runs, through `python -m phonolm.cli`:

    world --n-train 60 --n-test 12 --seed 7
    quantize --iters 4
    train --mode <m> --set steps=20 --seed 101     (all four modes, one bundle dir)
    eval --n-prompts 6 --seeds 2

and prints one `<sha256>  <path>` line per output file except the
`manifest.json` files, which hold paths and wall times. Two checkouts that
give the same lines at one BLAS thread count (`OPENBLAS_NUM_THREADS`, read
from the environment) wrote the same bytes: corpus, quantizers,
checkpoints, `losses_*.csv` and the eval report.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN_MODES = ("proposed_ar", "nar", "baseline_ar", "baseline_nar")


def run_recipe(src: Path, root: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k != "PHONOLM_SEED"}
    env["PYTHONPATH"] = str(src)

    def phonolm(*args):
        subprocess.run([sys.executable, "-m", "phonolm.cli", *args], cwd=root, env=env,
                       check=True, stdout=subprocess.DEVNULL)

    phonolm("world", "--out", "world", "--n-train", "60", "--n-test", "12", "--seed", "7")
    phonolm("quantize", "--corpus", "world", "--out", "quant", "--iters", "4")
    for mode in TRAIN_MODES:
        phonolm("train", "--mode", mode, "--corpus", "world", "--quantizers", "quant/quantizers.ckpt",
                "--out", "bundle", "--set", "steps=20", "--seed", "101")
    phonolm("eval", "--bundle", "bundle", "--corpus", "world", "--out", "eval",
            "--n-prompts", "6", "--seeds", "2")


def digests(root: Path) -> list:
    return [
        (hashlib.sha256(p.read_bytes()).hexdigest(), p.relative_to(root).as_posix())
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    ]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, work = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "phonolm" / "cli.py").is_file():
        print(f"no phonolm package in {src}", file=sys.stderr)
        return 2
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        run_recipe(src, Path(tmp))
        for digest, name in digests(Path(tmp)):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
