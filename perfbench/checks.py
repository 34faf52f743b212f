"""Output checks, computed apart from the program.

Each check returns a list of failure messages (empty when it passes). The
references here are written from the method's definition: brute-force
nearest-centroid search one centroid at a time, plain dynamic-programming
edit distance, and central finite differences. Where they must agree with the
program to the last bit (codes, oracle labels, sampled tokens) they use the
same arithmetic per element, so the only freedom left is the search itself.
"""

from __future__ import annotations

import math

import numpy as np

from phonolm import model as md
from phonolm import numerics as nm
from phonolm import pipeline as pl
from phonolm import tokenworld as tw

FIRST_LOSS_MARGIN = 0.25   # nats from ln(output vocab) at initialisation
FD_STEP = 1e-5
FD_ABS_TOL = 1e-7
FD_REL_TOL = 1e-5
ENERGY_REL_TOL = 1e-9
FIXPOINT_TOL = 1e-10
PER_TOL = 1e-12


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def nearest(vectors: np.ndarray, centroids: np.ndarray) -> tuple:
    """(ids, squared distances): one pass per centroid, strict < keeps the
    first minimum on ties."""
    best = np.full(vectors.shape[0], np.inf)
    ids = np.zeros(vectors.shape[0], dtype=np.int64)
    for j, c in enumerate(centroids):
        d = ((vectors - c) ** 2).sum(axis=1)
        closer = d < best
        ids[closer] = j
        best[closer] = d[closer]
    return ids, best


def rvq_codes(frames: np.ndarray, layers) -> tuple:
    """Greedy residual codes (T, n_layers) and the residual left after each
    layer, as a list of arrays."""
    residual = np.array(frames, dtype=np.float64)
    codes = np.zeros((residual.shape[0], len(layers)), dtype=np.int64)
    residuals = [residual]
    for j, centroids in enumerate(layers):
        ids, _ = nearest(residual, centroids)
        codes[:, j] = ids
        residual = residual - centroids[ids]
        residuals.append(residual)
    return codes, residuals


def decode(codes: np.ndarray, layers) -> np.ndarray:
    out = np.zeros((codes.shape[0], layers[0].shape[1]))
    for j, centroids in enumerate(layers):
        out += centroids[codes[:, j]]
    return out


def transcribe(frames: np.ndarray, spec) -> list:
    """Nearest (content, speaker) pair per frame, content labels run-collapsed."""
    if frames.shape[0] == 0:
        return []
    content, speakers = tw.content_prototypes(spec), tw.speaker_vectors(spec)
    pairs = (content[:, None, :] + speakers[None, :, :]).reshape(-1, spec.feature_dim)
    ids, _ = nearest(frames, pairs)
    labels = ids // spec.num_speakers
    out = []
    for x in labels:
        if not out or out[-1] != x:
            out.append(int(x))
    return out


def edit_distance(ref, hyp) -> int:
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        row = [i]
        for j, h in enumerate(hyp, 1):
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = row
    return prev[-1]


def sample_top_k(row: np.ndarray, temperature: float, top_k: int, rng) -> int:
    """Top-k / temperature draw: the k largest logits (lowest index first on
    ties), softmax, then the first candidate whose cumulative mass exceeds a
    uniform draw."""
    k = min(top_k, row.size)
    cand = np.argsort(-row, kind="stable")[:k]
    z = row[cand] / temperature
    p = np.exp(z - z.max())
    p /= p.sum()
    pick = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
    return int(cand[min(pick, k - 1)])


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------


def _frames(utts, attr) -> np.ndarray:
    return np.concatenate([getattr(u, attr) for u in utts])


def check_quantize(corpus, quant, max_iters: int, tokenized: dict, reported: dict) -> list:
    """`quant`: the fitted Quantizers; `tokenized`: split -> token lists from
    pipeline.tokenize_utterances; `reported`: quantizers.json as written."""
    fails = []
    phon = quant.phonetic.centroids
    rvq = [b.centroids for b in quant.rvq.layers]
    for split, toks in tokenized.items():
        utts = corpus.split(split)
        got_ph = np.concatenate([t.phonetic for t in toks])
        got_codes = np.concatenate([t.codes for t in toks])
        want_ph, _ = nearest(_frames(utts, "phonetic_frames"), phon)
        want_codes, _ = rvq_codes(_frames(utts, "acoustic_frames"), rvq)
        if not np.array_equal(got_ph, want_ph):
            fails.append(f"{split}: {int((got_ph != want_ph).sum())} phonetic tokens differ from brute force")
        if not np.array_equal(got_codes, want_codes):
            fails.append(f"{split}: {int((got_codes != want_codes).any(axis=1).sum())} RVQ frames differ from brute force")

    books = [("phonetic", quant.phonetic)] + [(f"rvq layer {j}", b) for j, b in enumerate(quant.rvq.layers)]
    for name, book in books:
        h = book.distortion_history
        if any(b > a for a, b in zip(h, h[1:])):
            fails.append(f"{name}: distortion history increases: {h}")
    energy = quant.rvq.residual_energy
    if any(b > a for a, b in zip(energy, energy[1:])):
        fails.append(f"RVQ residual energies increase: {energy}")

    train_ac = _frames(corpus.train, "acoustic_frames")
    codes, residuals = rvq_codes(train_ac, rvq)
    own = float(((train_ac - decode(codes, rvq)) ** 2).sum(axis=1).mean())
    said = reported["rvq"]["residual_energy"][-1]
    if not math.isclose(own, said, rel_tol=ENERGY_REL_TOL):
        fails.append(f"reported final residual energy {said!r} != recomputed {own!r}")

    fit_inputs = [_frames(corpus.train, "phonetic_frames")] + residuals[:-1]
    for (name, book), vectors in zip(books, fit_inputs):
        if book.iterations_run >= max_iters:
            continue
        ids, _ = nearest(vectors, book.centroids)
        for j in np.unique(ids):
            mean = vectors[ids == j].mean(axis=0)
            if np.abs(book.centroids[j] - mean).max() > FIXPOINT_TOL:
                fails.append(f"{name}: stopped after {book.iterations_run} rounds but centroid {j} is not its members' mean")
                break
    return fails


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def check_losses(mode: str, losses: list, output_vocab: int, steps: int) -> list:
    fails = []
    if len(losses) != steps:
        fails.append(f"{mode}: {len(losses)} losses for {steps} steps")
    if not all(math.isfinite(x) for x in losses):
        fails.append(f"{mode}: non-finite loss")
    elif losses and abs(losses[0] - math.log(output_vocab)) > FIRST_LOSS_MARGIN:
        fails.append(f"{mode}: first loss {losses[0]:.4f} is not near ln({output_vocab}) = {math.log(output_vocab):.4f}")
    return fails


def _probe_batch(model, tokenized):
    """A fixed dropout-free loss over four utterances."""
    idxs = np.arange(4) % len(tokenized)
    fracs = np.array([0.25, 0.3, 0.4, 0.45])
    if model.kind == md.AR:
        items = pl.ar_training_items(tokenized, idxs, fracs, model.role)
        return lambda: nm.cross_entropy(*md.ar_batch_logits(model, items))
    layers = model.min_layer + np.arange(4) % (model.config.n_codec_layers - model.min_layer + 1)
    items, labels = pl.nar_training_items(tokenized, idxs, fracs, layers, model.role)
    return lambda: nm.cross_entropy(md.nar_batch_logits(model, items), labels)


_FD_PARAMS = ("head/w", "blocks/0/attn/wq", "blocks/0/ffn/w1", "final_ln/gain")


def check_gradient(mode: str, model, tokenized, seed: int = 0) -> list:
    """Taped gradient vs central differences at sampled coordinates: the
    largest-magnitude coordinate and one uniformly drawn one per tensor."""
    loss_fn = _probe_batch(model, tokenized)
    for p in model.parameters():
        p.grad = None
    with nm.Tape() as tape:
        loss = loss_fn()
    nm.backward(loss, tape)
    rng = np.random.default_rng(seed)
    fails = []
    for name in _FD_PARAMS:
        param = model.params[name]
        grad = param.grad if param.grad is not None else np.zeros_like(param.data)
        flat, gflat = param.data.reshape(-1), grad.reshape(-1)
        for i in (int(np.abs(gflat).argmax()), int(rng.integers(flat.size))):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = loss_fn().item()
            flat[i] = orig - FD_STEP
            down = loss_fn().item()
            flat[i] = orig
            fd = (up - down) / (2 * FD_STEP)
            if abs(gflat[i] - fd) > FD_ABS_TOL + FD_REL_TOL * abs(fd):
                fails.append(f"{mode}: d loss / d {name}[{i}] taped {gflat[i]!r} vs finite difference {fd!r}")
    for p in model.parameters():
        p.grad = None
    return fails


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cap(request, spec, stream: str, base_len: int, max_len: int) -> int:
    rate = spec.phonetic_rate_per_slot if stream == md.STREAM_PHONETIC else spec.acoustic_rate_per_slot
    expected = max(1, int(round(len(request.phonemes) * spec.mean_slots_per_phoneme * rate)))
    return min(int(np.ceil(request.max_length_factor * expected)), max_len - base_len - 1)


def check_request(bundle, request, seed: int, result) -> list:
    """Replay the sampler over one teacher-forced pass, then check code shape
    and id ranges for one synthesized request."""
    q = bundle.quantizers
    ar = bundle.ar
    spec = bundle.world_spec
    rvq = [b.centroids for b in q.rvq.layers]
    fails = []
    if bundle.kind == pl.KIND_PROPOSED:
        prompt_stream, _ = nearest(request.prompt.phonetic_frames, q.phonetic.centroids)
        generated = np.asarray(result.phonetic_tokens, dtype=np.int64)
        want_frames = -(-3 * len(generated) // 2)
        if result.codes.shape[0] != want_frames:
            fails.append(f"proposed: {result.codes.shape[0]} frames for {len(generated)} tokens, want {want_frames}")
        if generated.size and (generated.min() < 0 or generated.max() >= q.phonetic.k):
            fails.append("proposed: phonetic token out of range")
    else:
        prompt_stream = rvq_codes(request.prompt.acoustic_frames, rvq)[0][:, 0]
        generated = np.asarray(result.codes[:, 0], dtype=np.int64)
        if result.codes.shape[0] != result.generated_length:
            fails.append(f"baseline: {result.codes.shape[0]} frames for {result.generated_length} generated tokens")
    if len(generated) != result.generated_length:
        fails.append(f"{bundle.kind}: {len(generated)} tokens but generated_length {result.generated_length}")
    codes = result.codes
    if codes.ndim != 2 or codes.shape[1] != q.rvq.n_layers:
        return fails + [f"{bundle.kind}: codes have shape {codes.shape}"]
    if codes.size and (codes.min() < 0 or codes.max() >= q.rvq.vocab):
        fails.append(f"{bundle.kind}: codec id out of range")

    phonemes = list(request.prompt.phonemes) + list(request.phonemes)
    logits, _ = md.ar_batch_logits(ar, [(phonemes, prompt_stream, generated)])
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    want = list(generated) if result.runaway else list(generated) + [ar.stop_id]
    got = [sample_top_k(logits.data[t], request.temperature, request.top_k, rng) for t in range(len(want))]
    if got != [int(x) for x in want]:
        first = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        fails.append(f"{bundle.kind}: replayed token {first} is {got[first]}, synthesis sampled {want[first]}")
    cap = _cap(request, spec, ar.role, len(phonemes) + 1 + len(prompt_stream), ar.config.max_sequence_len)
    if result.runaway and len(generated) != cap:
        fails.append(f"{bundle.kind}: runaway after {len(generated)} tokens, cap is {cap}")
    return fails


def own_per(bundle, requests, results) -> float:
    rvq = [b.centroids for b in bundle.quantizers.rvq.layers]
    rates = []
    for req, res in zip(requests, results):
        hyp = transcribe(decode(res.codes, rvq), bundle.world_spec)
        rates.append(edit_distance(req.phonemes, hyp) / max(1, len(req.phonemes)))
    return float(np.mean(rates))


def check_synth(tasks: list, report: dict) -> list:
    """`tasks`: captured eval tasks (bundle, split, requests, seeds, results);
    `report`: report.json as written by `phonolm eval`."""
    fails = []
    reported = {
        (entry["system"], split): metrics["per"]
        for entry in report.get("per_seed", [])
        for split, metrics in entry["splits"].items()
    }
    for t in tasks:
        task_fails = []
        for req, seed, res in zip(t["requests"], t["seeds"], t["results"]):
            task_fails += check_request(t["bundle"], req, seed, res)
        fails += task_fails
        if task_fails:
            continue  # codes that fail the checks above cannot be decoded safely
        key = (t["bundle"].kind, t["split"])
        own = own_per(t["bundle"], t["requests"], t["results"])
        if key not in reported:
            fails.append(f"{key}: no PER in report.json")
        elif abs(reported[key] - own) > PER_TOL:
            fails.append(f"{key}: reported PER {reported[key]!r} != recomputed {own!r}")
    return fails
