"""Run one benchmark workload of phonolm and print its metrics.

    python3 perfbench/run.py --workload {quantize,train,synth} --seed N --seconds S --trace {0,1}

Set-up runs several times and its median is `setup_s`. Then whole rounds of
the workload's stage run until `--seconds` have passed, and at least
`MIN_ROUNDS` of them; `stage_s` is the median round. With `--trace 1` rounds
alternate between untraced and traced and the per-layer metrics come from
the traced ones; the spans go to `.perfbench_out/`. The outputs of the
last round are checked after the clock stops, and every round's outputs must
be byte-identical to the first's.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The workload's inputs are
fixed and do not depend on `--seed`: every run does identical work, so runs
compare exactly. BLAS is pinned to one thread before numpy loads, because
trained weights differ in their last bits between thread counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
# set-up repeats at least `Size.setup_reps` times and for at least this long,
# so that a set-up of a fraction of a second still gives a steady median
SETUP_MIN_S = 3.0
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# every run does at least this many rounds, however short --seconds is: a
# `quantize` round takes 15-17 s, and a median of one or two rounds moved
# with the machine's speed. The median of three also leaves out a slow first
# `train` round: it grows the heap for the models (about 50k page faults)
# and has run up to 20-25% slower than the rounds after it.
MIN_ROUNDS = 3

# name -> unit of the metrics a run prints, as BENCHMARK.json lists them; a
# traced run prints every per-layer one, 0 where the layer does not run
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def root_metrics(tracer, root: int) -> dict:
    """Per-layer values of one traced root (a round or a set-up)."""
    out = {}
    for key, secs in tracer.self_times(root).items():
        out["trace.unattributed_s" if key == tracer.spans[root][0] else f"{key}_s"] = secs
    counts = tracer.counts[root]
    out.update(counts)
    padded = counts.get("model.ar_positions", 0) + counts.get("model.nar_positions", 0)
    if padded:
        out["model.padding_ratio"] = counts["model.real_positions"] / padded
    if counts.get("model.sampled_tokens"):
        out["model.positions_per_token"] = counts["model.ar_positions"] / counts["model.sampled_tokens"]
    if counts.get("numerics.backward_calls"):
        out["numerics.tape_records_per_step"] = counts["numerics.tape_records"] / counts["numerics.backward_calls"]
    return out


def layer_metrics(tracer, rounds: list, setups: list) -> dict:
    """Median over traced rounds for a layer that runs in the timed region,
    else median over set-ups, else 0."""
    per_round = [root_metrics(tracer, r) for r in rounds]
    per_setup = [root_metrics(tracer, r) for r in setups]
    out = {}
    for name in PER_LAYER:
        for sample in (per_round, per_setup):
            if any(name in m for m in sample):
                out[name] = statistics.median(m.get(name, 0.0) for m in sample)
                break
        else:
            out[name] = 0.0
    return out


def run(workload_name: str, seconds: float, trace: bool, work_dir: Path, size=None) -> tuple:
    """Set up, run rounds, check. Returns (result dict, printable lines, tracer)."""
    import workloads as wl
    from tracer import Tracer

    workload = wl.WORKLOADS[workload_name](work_dir, size or wl.FULL)
    tracer = Tracer() if trace else None
    setup_s, setup_roots = [], []
    while len(setup_s) < workload.size.setup_reps or sum(setup_s) < SETUP_MIN_S:
        t0 = time.perf_counter()
        if trace:
            with tracer.installed(), tracer.root("setup") as idx:
                workload.setup()
            setup_roots.append(idx)
        else:
            workload.setup()
        setup_s.append(time.perf_counter() - t0)

    rounds, traced_roots, untraced = [], [], []

    def one_round(traced: bool):
        # only the last round's outputs are checked; holding earlier ones
        # (bundles, models) would make the peak RSS grow with the round count
        for r in rounds:
            r.outputs = {}
        if not traced:
            with wl.Capture().installed() as capture:
                return workload.round(capture)
        # capture is installed inside the tracer, so its glue falls outside
        # the spans of the calls it wraps
        with tracer.installed(), tracer.root("round") as idx, wl.Capture().installed() as capture:
            traced_roots.append(idx)
            return workload.round(capture)

    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(one_round(traced))
        # the first round can run slower than the rest (see MIN_ROUNDS), so
        # the tracing overhead is measured against the untraced rounds after it
        if not traced and len(rounds) > 1:
            untraced.append(rounds[-1].stage_s)
    # the checks hold reference computations of their own; read the peak
    # before they run, so that it is the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails = workload.check(rounds[-1])
    for i, r in enumerate(rounds[1:], 2):
        if r.fingerprint != rounds[0].fingerprint:
            fails.append(f"round {i} outputs differ from round 1")
        if r.work != rounds[0].work:
            fails.append(f"round {i} work {r.work} differs from round 1 {rounds[0].work}")

    if trace:
        metrics = layer_metrics(tracer, traced_roots, setup_roots)
        metrics["trace.round_s"] = statistics.median(tracer.duration(r) for r in traced_roots)
        metrics["trace.untraced_round_s"] = statistics.median(untraced)
        metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.round_s"] / metrics["trace.untraced_round_s"] - 1.0)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "stage_s": statistics.median(r.stage_s for r in rounds),
        }
        units = END_TO_END

    lines = [f"workload {workload_name}: {len(setup_s)} set-up(s), {len(rounds)} timed round(s), trace {int(trace)}"]
    for name in rounds[0].figures:
        value = statistics.median(r.figures[name][0] for r in rounds)
        lines.append(f"  {name} {value:.6g} {rounds[0].figures[name][1]} (median of rounds)")
    lines.append(f"  stage_s per round: {', '.join(f'{r.stage_s:.4f}' for r in rounds)}")
    lines.append(f"  work per round: {json.dumps(rounds[0].work, sort_keys=True)}")
    lines += [f"  check failed: {f}" for f in fails]
    result = {
        "correct": not fails,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines, tracer


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("quantize", "train", "synth"))
    p.add_argument("--seed", type=int, required=True, help="recorded only; the inputs are fixed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "phonolm" / "__init__.py").is_file():
        print(f"error: no phonolm sources under {src}", file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if "numpy" in sys.modules:
        print("error: numpy was loaded before the BLAS thread count was pinned", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        result, lines, tracer = run(args.workload, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only if no other run is using it
    if tracer is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "metrics": result["metrics"], "spans": tracer.dump()}
        (out / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(dump) + "\n")
    print(f"seed {args.seed} (inputs are fixed; see perfbench/README.md)")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
