#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 tools/ab.py <parent tree> <change tree> --workload W --pairs N --seed0 S
                        [--digests] --out BENCH_x.json

A tree is a checkout that holds `BENCHMARK.json`, `perfbench/run.py` and
`src`. Pair i (i = 1..N) runs

    python3 perfbench/run.py --workload W --seed S+i-1 --seconds <run_seconds> --trace 0

in each tree, each run a fresh process, the parent first in odd pairs and the
change first in even ones, so that a drift in the machine's speed falls on
both sides alike. The run length is BENCHMARK.json's `run_seconds`, which
the two trees must agree on.

For every end-to-end metric the runs print, the workload's entry holds each
side's runs, median and quartiles (numpy's linear percentiles), the number
of pairs in which the change read lower, the medians' change in percent and
the parent's quartile spread; and whether every run was correct, with the
operations each side attempted and failed. The entry goes under `workloads`
in --out, or under `repeats` when --out already holds the workload, so a
second batch stands beside the first. Other workloads and keys already in
that file are kept, so one file gathers several workloads, and a `change` or
`claim` written there by hand stays. The run stops before its first pair
when --out already holds the workload twice, or when it records other trees
(`parent_tree`, `change_tree`) than these.

With --digests the change tree's `tools/output_digests.py` also compares the
two trees' `src` at 1 and at 2 BLAS threads, and `same_bytes` records its
summary line and the files that differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
METHOD = ("alternating parent/change pairs (parent first in odd pairs), each run a fresh process in its own "
          "checkout; median and quartiles (numpy linear percentiles) of each side, and the number of pairs in "
          "which the change read lower")


def label(tree: Path) -> str:
    """The tree's commit (`git describe --always --dirty`), or its directory
    name when it is not a git checkout."""
    if (tree / ".git").exists():
        done = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return tree.name


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that one `perfbench/run.py` run prints last."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tree}: perfbench/run.py --seed {seed} printed no result "
                         f"(exit {done.returncode}):\n{done.stderr[-2000:]}") from None


def summary(runs: list) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4),
            "runs": [round(r, 4) for r in runs]}


def compare(parent: list, change: list) -> dict:
    p, c = summary(parent), summary(change)
    return {
        "parent": p,
        "change": c,
        "change_lower_in_pairs": sum(b < a for a, b in zip(parent, change)),
        "pairs": len(parent),
        "median_change_pct": round(100.0 * (c["median"] / p["median"] - 1.0), 2),
        "parent_quartile_spread": round(p["q3"] - p["q1"], 4),
    }


def measure(trees: dict, workload: str, pairs: int, seed0: int, seconds: float) -> dict:
    seeds = [seed0 + i for i in range(pairs)]
    results = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            results[side].append(run_once(trees[side], workload, seed, seconds))
            print(f"pair {i + 1}/{pairs} {side}: {json.dumps(results[side][-1]['metrics'])}", file=sys.stderr)
    names = list(results["parent"][0]["metrics"])
    runs = {side: {name: [r["metrics"][name]["value"] for r in results[side]] for name in names} for side in SIDES}
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed <seed> --seconds {seconds:g} --trace 0",
        "seeds": seeds,
        "every_run_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "attempted_operations": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed_operations": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "metrics": {name: compare(runs["parent"][name], runs["change"][name]) for name in names},
    }


def same_bytes(trees: dict) -> dict:
    """output_digests.py's verdict on the two trees' src, per BLAS thread count."""
    script = trees["change"] / "tools" / "output_digests.py"
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for threads in ("1", "2"):
            done = subprocess.run([sys.executable, str(script), str(trees["parent"] / "src"),
                                   str(trees["change"] / "src"), work],
                                  env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True)
            lines = done.stderr.strip().splitlines()
            out[f"OPENBLAS_NUM_THREADS={threads}"] = {
                "exit": done.returncode,
                "summary": lines[-1] if lines else "",
                "differ": done.stdout.split(),
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, choices=("quantize", "train", "synth"))
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--digests", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file() or not (tree / "BENCHMARK.json").is_file():
            p.error(f"no perfbench/run.py or BENCHMARK.json in {tree}")
    seconds = {json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"] for tree in trees.values()}
    if len(seconds) != 1:
        p.error(f"the trees' BENCHMARK.json set different run_seconds: {sorted(seconds)}")
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    labels = {"parent_tree": label(trees["parent"]), "change_tree": label(trees["change"])}
    for key, value in labels.items():
        if bench.get(key, value) != value:
            p.error(f"{args.out} records {key} {bench[key]}, not {value}")
    slot = "repeats" if args.workload in bench.get("workloads", {}) else "workloads"
    if args.workload in bench.get(slot, {}):
        p.error(f"{args.out} already holds workloads.{args.workload} and repeats.{args.workload}")
    bench.update({
        **labels,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}; "
                   "perfbench/run.py pins BLAS to 1 thread",
        "method": METHOD,
    })
    bench.setdefault(slot, {})[args.workload] = measure(trees, args.workload, args.pairs, args.seed0, seconds.pop())
    if args.digests:
        bench["same_bytes"] = same_bytes(trees)
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
