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

from . import checkpoint
from . import pipeline as pl
from . import quantizer as qz
from . import tokenworld as tw
from .numerics import ContractError

log = logging.getLogger(__name__)

_PROMPT_STREAM = 0x50
_SAMPLER_STREAM = 0x51

METRICS = ("per", "speaker_consistency", "runaway_rate")
_LOWER_BETTER = {"per": True, "speaker_consistency": False, "runaway_rate": True}
REPORT_FILES = ("report.json", "report.txt")  # what `write_report` writes


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


@dataclass
class EvalReport:
    """One system's metrics per split at one evaluation seed, which draws the
    prompt pairs and the sampler seeds (not the bundle's training seed).
    `phonolm eval` gives its rep-th report of a bundle `--seed` + rep."""

    system: str
    seed: int
    splits: dict = field(default_factory=dict)  # split name -> SplitMetrics


def aggregate(evals: list, skipped: int) -> SplitMetrics:
    """A split's metrics: each rate is the mean of the utterances' own rates."""
    return SplitMetrics(
        n=len(evals),
        per=float(np.mean([e.breakdown.rate for e in evals])),
        sub_rate=float(np.mean([e.breakdown.substitutions / max(1, e.breakdown.ref_len) for e in evals])),
        del_rate=float(np.mean([e.breakdown.deletions / max(1, e.breakdown.ref_len) for e in evals])),
        ins_rate=float(np.mean([e.breakdown.insertions / max(1, e.breakdown.ref_len) for e in evals])),
        speaker_consistency=float(np.mean([e.speaker_ok for e in evals])),
        runaway_rate=float(np.mean([e.runaway for e in evals])),
        skipped=skipped,
    )


def score_frames(target, frames, runaway: bool, spec) -> UtteranceEval:
    """Score `frames` against `target`: the oracle transcript against its
    phonemes, the majority oracle speaker (lowest id on ties, none without
    frames) against its speaker."""
    content, speakers = tw.oracle_labels(frames, spec)
    breakdown = levenshtein(target.phonemes, tw.collapse_runs(content))
    speaker_ok = len(speakers) > 0 and np.bincount(speakers).argmax() == target.speaker_id
    return UtteranceEval(breakdown=breakdown, speaker_ok=bool(speaker_ok), runaway=runaway)


def _pairable(utts, split: str) -> tuple:
    """Each speaker's utterance indices in `utts`, and the indices of the
    utterances whose speaker has another one to prompt with. A split with
    no such utterance has nothing to score: ContractError."""
    by_speaker = {}
    for i, u in enumerate(utts):
        by_speaker.setdefault(u.speaker_id, []).append(i)
    usable = [i for i, u in enumerate(utts) if len(by_speaker[u.speaker_id]) > 1]
    if not usable:
        raise ContractError(f"nothing to score in {split}: no speaker in it has two utterances")
    return by_speaker, usable


def check_scorable(corpus: tw.Corpus, splits) -> None:
    """Raise ContractError naming the first of `splits` that has nothing to score."""
    for split in splits:
        _pairable(corpus.split(split), split)


def _pick_eval_utterances(corpus: tw.Corpus, split: str, n_prompts: int, seed: int) -> tuple:
    """(utterances of `split`, (target, prompt) index pairs, skipped count):
    a deterministic subset with a same-speaker prompt partner per utterance.

    Utterances whose speaker has no other utterance in the split are skipped
    with a warning.
    """
    if n_prompts < 1:
        raise ContractError(f"n_prompts must be >= 1, got {n_prompts}")
    utts = corpus.split(split)
    by_speaker, usable = _pairable(utts, split)
    rng = np.random.default_rng([seed, _PROMPT_STREAM])
    skipped = len(utts) - len(usable)
    if skipped:
        log.warning("skipping %d utterance(s) whose speaker has a single utterance", skipped)
    if n_prompts < len(usable):
        usable = list(rng.choice(usable, size=n_prompts, replace=False))
    pairs = []
    for i in usable:
        candidates = [k for k in by_speaker[utts[i].speaker_id] if k != i]
        pairs.append((i, int(candidates[int(rng.integers(len(candidates)))])))
    return utts, pairs, skipped


def evaluate_system(
    bundle: pl.SystemBundle,
    corpus: tw.Corpus,
    split: str,
    n_prompts: int,
    seed: int,
) -> SplitMetrics:
    """Synthesize each evaluation utterance from a same-speaker prompt and
    score it against the oracle. Prompts must come from held-out speakers,
    and the corpus from the bundle's world."""
    if split not in ("test_clean", "test_other"):
        raise ContractError(f"evaluation split must be a test split, got {split!r}")
    pl.check_corpus_world(bundle, corpus)
    utts, pairs, skipped = _pick_eval_utterances(corpus, split, n_prompts, seed)
    train_speakers = corpus.train_speakers
    requests, sampler_seeds = [], []
    seed_rng = np.random.default_rng([seed, _SAMPLER_STREAM])
    for target_i, prompt_i in pairs:
        target, prompt = utts[target_i], utts[prompt_i]
        if prompt.speaker_id in train_speakers:
            raise ContractError("zero-shot protocol violation: prompt speaker seen in training")
        requests.append(pl.SynthesisRequest(phonemes=target.phonemes, prompt=prompt))
        sampler_seeds.append(int(seed_rng.integers(0, 2**63 - 1)))
    results = pl.synthesize_many(bundle, requests, sampler_seeds)
    evals = [
        score_frames(utts[i], qz.rvq_decode(res.codes, bundle.quantizers.rvq), res.runaway, bundle.world_spec)
        for (i, _), res in zip(pairs, results)
    ]
    return aggregate(evals, skipped)


def evaluate_passthrough(corpus: tw.Corpus, quantizers, split: str, n_prompts: int, seed: int) -> SplitMetrics:
    """Score ground-truth codecs passed straight through the RVQ: the codec
    fidelity floor an ideal generator could reach. No generation, no runaway."""
    utts, pairs, skipped = _pick_eval_utterances(corpus, split, n_prompts, seed)
    tokenized = pl.tokenize_utterances([utts[i] for i, _ in pairs], quantizers)
    evals = [
        score_frames(utts[i], qz.rvq_decode(tu.codes, quantizers.rvq), False, corpus.world_spec)
        for (i, _), tu in zip(pairs, tokenized)
    ]
    return aggregate(evals, skipped)


# ---------------------------------------------------------------------------
# the comparison report
# ---------------------------------------------------------------------------


def write_report(reports: list, out_dir) -> str:
    """Write `report.json` and `report.txt` from per-seed EvalReports of one
    system or more; returns the table text.

    Every report must have scored the same splits. Rows and `systems` go by
    system name; a row holds the mean and the sample std (0 for one seed) of
    each metric over that system's reports. Winners mark the better mean per
    metric and split: None on an exact tie, and for a lone system, which has
    nothing to beat. `per_seed` lists the reports in `pipeline.SYSTEMS`
    order, then by seed, so the bytes do not depend on the order `reports`
    come in (reports sharing a system and a seed, from two bundles of one
    kind, keep theirs).
    """
    if not reports:
        raise ContractError("no reports to write")
    splits = list(reports[0].splits)
    if any(list(r.splits) != splits for r in reports):
        raise ContractError("reports were scored on different splits")
    reports = sorted(reports, key=lambda r: (pl.SYSTEMS.index(r.system), r.seed))
    systems = sorted({r.system for r in reports})
    rows = []
    for system in systems:
        own = [r for r in reports if r.system == system]
        for split in splits:
            row = {"system": system, "split": split, "n_seeds": len(own)}
            for metric in METRICS:
                vals = np.array([getattr(r.splits[split], metric) for r in own])
                row[f"{metric}_mean"] = float(vals.mean())
                row[f"{metric}_std"] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
            rows.append(row)
    winners = {split: {} for split in splits}
    for split in splits:
        for metric in METRICS:
            means = [row[f"{metric}_mean"] for row in rows if row["split"] == split]
            best = min(means) if _LOWER_BETTER[metric] else max(means)
            leaders = [s for s, m in zip(systems, means) if m == best]
            winners[split][metric] = leaders[0] if len(leaders) == 1 and len(systems) > 1 else None
    text = _format_table(rows, winners)
    payload = {"systems": systems, "splits": splits, "rows": rows, "winners": winners,
               "per_seed": [asdict(r) for r in reports]}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_name, text_name = REPORT_FILES
    checkpoint.write_atomic(out / json_name, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    checkpoint.write_atomic(out / text_name, text + "\n")
    return text


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
