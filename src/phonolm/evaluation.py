"""Quantitative comparison harness.

Error rates are phoneme error rates (PER, the WER analog in a world without
word boundaries): unit-cost edit distance between the oracle transcription of
the synthesized frames and the reference phonemes, divided by reference
length. Substitutions proxy mispronunciation, deletions word deletion, and
insertions repetition. Speaker consistency (the S-MOS analog) is the rate at
which the oracle speaker classifier attributes the synthesis to the prompt's
speaker, and the runaway rate counts generations that never emitted STOP.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import pipeline as pl
from . import quantizer as qz
from . import tokenworld as tw
from .numerics import ContractError

log = logging.getLogger(__name__)

_PROMPT_STREAM = 0x50
_SAMPLER_STREAM = 0x51

METRICS = ("per", "speaker_consistency", "runaway_rate")
_LOWER_BETTER = {"per": True, "speaker_consistency": False, "runaway_rate": True}


@dataclass
class EditBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    @property
    def distance(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def rate(self) -> float:
        return self.distance / max(1, self.ref_len)


def levenshtein(ref, hyp) -> EditBreakdown:
    """Unit-cost edit distance with canonical S/D/I counts.

    Among optimal alignments, ties prefer the substitution/match move (the
    alignment with the most matches). That pins the counts uniquely: with
    d = distance and m = max matches, S = len(ref) + len(hyp) - 2m - d, and
    D - I = len(ref) - len(hyp) for any alignment, so deletion/insertion
    order never matters. Uniqueness also makes the counts symmetric:
    swapping the arguments swaps D and I exactly.
    """
    ref = list(ref)
    hyp = list(hyp)
    m, n = len(ref), len(hyp)
    # lexicographic (distance, -matches) packed into one int
    big = m + n + 1
    prev = [j * big for j in range(n + 1)]
    for i in range(1, m + 1):
        ri = ref[i - 1]
        row = [i * big] + [0] * n
        for j in range(1, n + 1):
            eq = ri == hyp[j - 1]
            diag = prev[j - 1] + (0 if eq else big) - (1 if eq else 0)
            row[j] = min(diag, prev[j] + big, row[j - 1] + big)
        prev = row
    dist, matches = divmod(prev[n], big)
    if matches:
        dist, matches = dist + 1, big - matches
    subs = m + n - 2 * matches - dist
    dels = (dist - subs + (m - n)) // 2
    ins = (dist - subs - (m - n)) // 2
    return EditBreakdown(substitutions=subs, deletions=dels, insertions=ins, ref_len=m)


@dataclass
class UtteranceEval:
    per: float
    breakdown: EditBreakdown
    speaker_ok: bool
    runaway: bool


@dataclass
class SplitMetrics:
    n: int
    per: float
    sub_rate: float
    del_rate: float
    ins_rate: float
    speaker_consistency: float
    runaway_rate: float
    skipped: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalReport:
    """One system's metrics per split, for one training seed."""

    system: str
    seed: int
    splits: dict = field(default_factory=dict)  # split name -> SplitMetrics

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "seed": self.seed,
            "splits": {k: v.to_dict() for k, v in self.splits.items()},
        }


def _aggregate(evals: list, skipped: int) -> SplitMetrics:
    n = len(evals)
    if n == 0:
        return SplitMetrics(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, skipped=skipped)
    return SplitMetrics(
        n=n,
        per=float(np.mean([e.per for e in evals])),
        sub_rate=float(np.mean([e.breakdown.substitutions / max(1, e.breakdown.ref_len) for e in evals])),
        del_rate=float(np.mean([e.breakdown.deletions / max(1, e.breakdown.ref_len) for e in evals])),
        ins_rate=float(np.mean([e.breakdown.insertions / max(1, e.breakdown.ref_len) for e in evals])),
        speaker_consistency=float(np.mean([e.speaker_ok for e in evals])),
        runaway_rate=float(np.mean([e.runaway for e in evals])),
        skipped=skipped,
    )


def _pick_eval_utterances(utts, n_prompts, rng):
    """Deterministic subset with a same-speaker prompt partner per utterance.

    Utterances whose speaker has no other utterance in the split are skipped
    with a warning.
    """
    by_speaker = {}
    for i, u in enumerate(utts):
        by_speaker.setdefault(u.speaker_id, []).append(i)
    usable = [i for i, u in enumerate(utts) if len(by_speaker[u.speaker_id]) > 1]
    skipped = len(utts) - len(usable)
    if skipped:
        log.warning("skipping %d utterance(s) whose speaker has a single utterance", skipped)
    if n_prompts < len(usable):
        usable = list(rng.choice(usable, size=n_prompts, replace=False))
    pairs = []
    for i in usable:
        candidates = [k for k in by_speaker[utts[i].speaker_id] if k != i]
        pairs.append((i, int(candidates[int(rng.integers(len(candidates)))])))
    return pairs, skipped


def evaluate_system(
    bundle: pl.SystemBundle,
    corpus: tw.Corpus,
    split: str,
    n_prompts: int,
    seed: int,
    temperature: float = 1.0,
    top_k: int = 8,
    max_length_factor: float = 2.0,
    chunk_size: int = 8,
    with_details: bool = False,
) -> SplitMetrics:
    """Synthesize each evaluation utterance from a same-speaker prompt and
    score it against the oracle. Prompts must come from held-out speakers.

    With `with_details`, also returns the per-utterance rows."""
    if split not in ("test_clean", "test_other"):
        raise ContractError(f"evaluation split must be a test split, got {split!r}")
    utts = corpus.split(split)
    train_speakers = corpus.train_speakers
    spec = bundle.world_spec
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _PROMPT_STREAM])))
    pairs, skipped = _pick_eval_utterances(utts, n_prompts, rng)
    requests, sampler_seeds, refs = [], [], []
    seed_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _SAMPLER_STREAM])))
    for target_i, prompt_i in pairs:
        target, prompt = utts[target_i], utts[prompt_i]
        if prompt.speaker_id in train_speakers:
            raise ContractError("zero-shot protocol violation: prompt speaker seen in training")
        requests.append(
            pl.SynthesisRequest(
                phonemes=target.phonemes,
                prompt=prompt,
                temperature=temperature,
                top_k=top_k,
                max_length_factor=max_length_factor,
            )
        )
        sampler_seeds.append(int(seed_rng.integers(0, 2**63 - 1)))
        refs.append(target)
    results = pl.synthesize_many(bundle, requests, sampler_seeds, chunk_size=chunk_size)
    evals = []
    for target, res in zip(refs, results):
        frames = qz.rvq_decode(res.codes, bundle.quantizers.rvq)
        hyp = tw.oracle_transcribe(frames, spec)
        breakdown = levenshtein(target.phonemes, hyp)
        speaker_ok = False
        if frames.shape[0] > 0:
            speaker_ok = tw.oracle_speaker(frames, spec) == target.speaker_id
        evals.append(
            UtteranceEval(
                per=breakdown.rate, breakdown=breakdown,
                speaker_ok=bool(speaker_ok), runaway=res.runaway,
            )
        )
    if with_details:
        return _aggregate(evals, skipped), evals
    return _aggregate(evals, skipped)


def evaluate_passthrough(corpus: tw.Corpus, quantizers, split: str, n_prompts: int, seed: int) -> SplitMetrics:
    """Score ground-truth codecs passed straight through the RVQ: the codec
    fidelity floor an ideal generator could reach. No generation, no runaway."""
    utts = corpus.split(split)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _PROMPT_STREAM])))
    pairs, skipped = _pick_eval_utterances(utts, n_prompts, rng)
    spec = corpus.world_spec
    evals = []
    for target_i, _ in pairs:
        target = utts[target_i]
        frames = qz.rvq_decode(qz.rvq_encode(target.acoustic_frames, quantizers.rvq), quantizers.rvq)
        breakdown = levenshtein(target.phonemes, tw.oracle_transcribe(frames, spec))
        evals.append(
            UtteranceEval(
                per=breakdown.rate,
                breakdown=breakdown,
                speaker_ok=tw.oracle_speaker(frames, spec) == target.speaker_id,
                runaway=False,
            )
        )
    return _aggregate(evals, skipped)


# ---------------------------------------------------------------------------
# seed aggregation and comparison tables
# ---------------------------------------------------------------------------


@dataclass
class AggregateMetrics:
    mean: dict
    std: dict
    n_seeds: int

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_seed_reports(reports: list) -> dict:
    """Combine per-seed EvalReports of one system: mean and sample std per
    metric per split. Reports must agree on system and splits."""
    if not reports:
        raise ContractError("no reports to aggregate")
    system = reports[0].system
    splits = list(reports[0].splits)
    if any(r.system != system or list(r.splits) != splits for r in reports):
        raise ContractError("reports disagree on system or splits")
    out = {"system": system, "seeds": [r.seed for r in reports], "splits": {}}
    for split in splits:
        mean, std = {}, {}
        for metric in METRICS:
            vals = np.array([getattr(r.splits[split], metric) for r in reports])
            mean[metric] = float(vals.mean())
            std[metric] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        out["splits"][split] = AggregateMetrics(mean=mean, std=std, n_seeds=len(reports)).to_dict()
    return out


def compare_systems(aggregates: list) -> dict:
    """Table comparing >= 2 systems over identical splits.

    Returns {"systems", "splits", "rows", "winners", "text"}; winners mark
    the better seed-mean per metric and split (None on exact ties).
    """
    if len(aggregates) < 2:
        raise ContractError("compare_systems needs at least two systems")
    splits = list(aggregates[0]["splits"])
    if any(list(a["splits"]) != splits for a in aggregates):
        raise ContractError("systems were evaluated on different splits")
    systems = [a["system"] for a in aggregates]
    winners = {}
    for split in splits:
        winners[split] = {}
        for metric in METRICS:
            vals = [a["splits"][split]["mean"][metric] for a in aggregates]
            best = min(vals) if _LOWER_BETTER[metric] else max(vals)
            idxs = [i for i, v in enumerate(vals) if v == best]
            winners[split][metric] = systems[idxs[0]] if len(idxs) == 1 else None
    rows = []
    for a in aggregates:
        for split in splits:
            m, s = a["splits"][split]["mean"], a["splits"][split]["std"]
            rows.append(
                {
                    "system": a["system"],
                    "split": split,
                    "n_seeds": a["splits"][split]["n_seeds"],
                    **{f"{k}_mean": m[k] for k in METRICS},
                    **{f"{k}_std": s[k] for k in METRICS},
                }
            )
    return {
        "systems": systems,
        "splits": splits,
        "rows": rows,
        "winners": winners,
        "text": _format_table(rows, winners),
    }


def _format_table(rows, winners) -> str:
    header = f"{'system':<10} {'split':<11} {'PER':>14} {'speaker':>14} {'runaway':>14}"
    lines = [header, "-" * len(header)]
    for r in rows:
        cells = []
        for metric in METRICS:
            star = "*" if winners[r["split"]][metric] == r["system"] else " "
            cells.append(f"{r[f'{metric}_mean']:.4f}±{r[f'{metric}_std']:.4f}{star}")
        lines.append(f"{r['system']:<10} {r['split']:<11} " + " ".join(f"{c:>14}" for c in cells))
    lines.append("(* marks the better seed-mean; PER and runaway lower is better)")
    return "\n".join(lines)


def write_report(comparison: dict, out_dir, per_seed_reports=None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {k: comparison[k] for k in ("systems", "splits", "rows", "winners")}
    if per_seed_reports is not None:
        payload["per_seed"] = [r.to_dict() for r in per_seed_reports]
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (out / "report.txt").write_text(comparison["text"] + "\n")


def write_per_utterance_csv(rows: list, path) -> None:
    """CSV export of per-utterance evaluation rows for external analysis."""
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["system", "split", "seed", "index", "per", "substitutions", "deletions",
             "insertions", "ref_len", "speaker_ok", "runaway"]
        )
        writer.writerows(rows)
