"""Discretization layer: K-means tokens, residual vector quantization, and
the 2:3 token-rate upsampler.

Nearest-centroid assignment everywhere (chunked over rows) screens with the
expanded form ||x||^2 - 2 x.c + ||c||^2, one matrix product per chunk, and
rechecks near-ties with explicit squared differences. Ids (first minimum on
ties) and distances are therefore exactly those of a brute-force search over
explicit squared differences. Empty clusters are repaired by moving their
centroid onto the point farthest from its current centroid, which keeps
Lloyd's distortion monotone.

The same exact search (`_nearest`) also serves the world's oracle
(`tokenworld._classify_frames`), which labels frames with their nearest
(content, speaker) pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint
from .numerics import ContractError, ShapeError

_ASSIGN_CHUNK = 2048


@dataclass
class Codebook:
    centroids: np.ndarray          # (K, d)
    iterations_run: int = 0
    final_distortion: float = 0.0  # mean squared distance at convergence
    distortion_history: list = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass
class RvqModel:
    layers: list                          # Codebook per layer, residual-fit order
    residual_energy: list = field(default_factory=list)  # mean ||r||^2 after each layer

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def dim(self) -> int:
        return self.layers[0].dim

    @property
    def vocab(self) -> int:
        return self.layers[0].k


@dataclass
class Quantizers:
    """The fitted pair used by the pipeline: phonetic codebook + acoustic RVQ."""

    phonetic: Codebook
    rvq: RvqModel


def _screen(g: np.ndarray, tol: np.ndarray) -> tuple:
    """(first argmin, rows to recheck) of a screened block g, as `_nearest`
    describes; overwrites each row's minimum with inf."""
    r = np.arange(g.shape[0])
    best = g.argmin(axis=1)
    bound = g[r, best] + 2.0 * tol
    g[r, best] = np.inf
    second = g[r, g.argmin(axis=1)]
    return best, (second <= bound) | ~np.isfinite(bound)


def _nearest(vectors: np.ndarray, centroids: np.ndarray) -> tuple:
    """(ids, squared distances) of the nearest centroid per vector.

    Both equal the explicit search `((x - c) ** 2).sum()` + argmin, ties to
    the lowest centroid index (argmin picks the first min).

    Screening uses g = ||x||^2 - 2 x.c + ||c||^2. Let D be the exact squared
    distance, e its explicit float value, d the dimension, u = eps / 2 and
    gamma_n = n u / (1 - n u). Every term of e is (x_k - c_k)^2 to within a
    relative (1 + u)^3, and summing d non-negative terms in any order adds at
    most gamma_(d-1), so |e - D| <= gamma_(d+2) D <= gamma_(d+2) (|x| + |c|)^2.
    In g, ||x||^2, x.c and ||c||^2 each carry at most gamma_d times
    ||x||^2, |x||c| and ||c||^2 (Cauchy-Schwarz, any summation order, FMA or
    not), and the two additions add 2u of (|x| + |c|)^2, so also
    |g - D| <= gamma_(d+2) (|x| + |c|)^2. Hence |g - e| <= tol with
    tol = (d + 4) eps (|x| + max|c|)^2, which exceeds 2 gamma_(d+2) (...)^2
    and leaves room for rounding in tol itself. If g_j > min(g) + 2 tol for
    every centroid j but the screened one, then e_j > min(g) + tol >= e at
    the screened one, so it is the explicit argmin. Rows where a second
    centroid is within 2 tol, or where tol is not finite, are rechecked with
    the explicit form.

    `_screen` reads min(g) at the row's argmin (the first NaN on a NaN row,
    so the bound is NaN there) and the second best as the argmin of the row
    with that entry set to inf: a row is rechecked when the second best is
    <= min(g) + 2 tol or that bound is not finite, which is exactly when
    more than one entry is <= a finite bound.
    """
    n, d = vectors.shape
    ids = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_max = float(np.sqrt(c_sq.max())) if c_sq.size else 0.0
    neg2c = -2.0 * centroids.T  # scaling by -2 is exact: chunk @ neg2c equals (chunk @ c.T) * -2
    for start in range(0, n, _ASSIGN_CHUNK):
        chunk = vectors[start : start + _ASSIGN_CHUNK]
        rows = slice(start, start + chunk.shape[0])
        x_sq = np.einsum("ij,ij->i", chunk, chunk)
        g = chunk @ neg2c
        g += x_sq[:, None]
        g += c_sq[None, :]
        tol = (d + 4) * np.finfo(np.float64).eps * (np.sqrt(x_sq) + c_max) ** 2
        best, near = _screen(g, tol)
        if near.any():
            sub = chunk[near]
            best[near] = ((sub[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        ids[rows] = best
        diff = np.subtract(chunk, centroids.take(best, axis=0))
        np.square(diff, out=diff)
        np.sum(diff, axis=1, out=dists[rows])
    return ids, dists


def _kmeans_pp_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: next centroid drawn with probability ~ D^2."""
    n = vectors.shape[0]
    centroids = np.empty((k, vectors.shape[1]))
    centroids[0] = vectors[int(rng.integers(n))]
    d2 = ((vectors - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))  # all points coincide with chosen seeds
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = vectors[idx]
        d2 = np.minimum(d2, ((vectors - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans_fit(vectors: np.ndarray, k: int, max_iters: int = 50, seed: int = 0) -> Codebook:
    """Lloyd's algorithm from a k-means++ seeding.

    Stops at assignment fixpoint or after `max_iters` assign/update rounds.
    Distortion (mean squared distance) is recorded after every assignment and
    is non-increasing by construction.
    """
    return _kmeans(vectors, k, max_iters, seed)[0]


def _kmeans(vectors, k, max_iters, seed) -> tuple:
    """kmeans_fit's (Codebook, nearest-centroid ids of `vectors` under it)."""
    vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
    if vectors.ndim != 2:
        raise ShapeError(f"expected (n, d) vectors, got {vectors.shape}")
    n = vectors.shape[0]
    if n < k:
        raise ContractError(f"need at least k={k} vectors, got {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x6B6D])))
    centroids = _kmeans_pp_init(vectors, k, rng)
    columns = np.ascontiguousarray(vectors.T)
    assignments = None
    history = []
    iters = 0
    for _ in range(max_iters):
        ids, d2 = _nearest(vectors, centroids)
        history.append(float(d2.mean()))
        if assignments is not None and np.array_equal(ids, assignments):
            break  # fixpoint: ids and d2 already belong to the final centroids
        assignments = ids
        iters += 1
        # bincount adds in index order, like np.add.at, so sums are bit-identical
        sums = np.stack([np.bincount(ids, weights=col, minlength=k) for col in columns], axis=1)
        counts = np.bincount(ids, minlength=k)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        empties = np.flatnonzero(~occupied)
        if empties.size:
            _, dist_now = _nearest(vectors, centroids[occupied])
            for e in empties:
                far = int(dist_now.argmax())
                centroids[e] = vectors[far]
                dist_now[far] = 0.0
    else:  # no fixpoint within max_iters: assign to the last update's centroids
        ids, d2 = _nearest(vectors, centroids)
    final = float(d2.mean())
    if not history or final != history[-1]:
        history.append(final)
    return Codebook(
        centroids=centroids,
        iterations_run=iters,
        final_distortion=final,
        distortion_history=history,
    ), ids


def kmeans_assign(vectors: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Token ids of the nearest centroid per vector (lowest index on ties)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != codebook.dim:
        raise ContractError(
            f"vectors {vectors.shape} do not match codebook dim {codebook.dim}"
        )
    return _nearest(vectors, codebook.centroids)[0]


# ---------------------------------------------------------------------------
# residual vector quantization
# ---------------------------------------------------------------------------


def rvq_fit(
    vectors: np.ndarray,
    layers: int = 8,
    k: int = 32,
    max_iters: int = 50,
    seed: int = 0,
) -> RvqModel:
    """Fit `layers` codebooks, each on the residuals of the ones before it.

    Mean residual energy after each layer is recorded; because every layer's
    k-means does at least as well as quantizing to the residual mean, the
    energy sequence is non-increasing.
    """
    residual = np.array(vectors, dtype=np.float64)
    books = []
    energy = []
    for j in range(layers):
        book, ids = _kmeans(residual, k, max_iters, seed + j)
        residual = residual - book.centroids[ids]
        books.append(book)
        energy.append(float((residual**2).sum(axis=1).mean()))
    return RvqModel(layers=books, residual_energy=energy)


def rvq_encode(frames: np.ndarray, model: RvqModel) -> np.ndarray:
    """Greedy per-layer nearest-centroid codes: (T, n_layers) int matrix."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != model.dim:
        raise ContractError(f"frames {frames.shape} do not match RVQ dim {model.dim}")
    codes = np.empty((frames.shape[0], model.n_layers), dtype=np.int64)
    residual = frames.copy()
    for j, book in enumerate(model.layers):
        ids, _ = _nearest(residual, book.centroids)
        codes[:, j] = ids
        residual -= book.centroids[ids]
    return codes


def rvq_decode(codes: np.ndarray, model: RvqModel, n_layers: int | None = None) -> np.ndarray:
    """Sum of selected centroids across the first `n_layers` layers."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ShapeError(f"codes must be (T, layers), got {codes.shape}")
    use = model.n_layers if n_layers is None else n_layers
    if codes.shape[1] < use:
        raise ContractError(f"codes have {codes.shape[1]} layers, need {use}")
    out = np.zeros((codes.shape[0], model.dim))
    for j in range(use):
        ids = codes[:, j]
        book = model.layers[j]
        if ids.size and (ids.min() < 0 or ids.max() >= book.k):
            raise ContractError(f"layer {j} id out of range [0, {book.k})")
        out += book.centroids[ids]
    return out


# ---------------------------------------------------------------------------
# rate upsampler
# ---------------------------------------------------------------------------


def upsample_tokens(seq) -> np.ndarray:
    """Repeat tokens 2->3: output length ceil(3L/2), output[t] = input[2t//3]."""
    seq = np.asarray(seq, dtype=np.int64)
    if seq.ndim != 1:
        raise ShapeError(f"token sequence must be 1-D, got {seq.shape}")
    if seq.size == 0:
        return seq.copy()
    out_len = -(-3 * seq.size // 2)
    idx = (2 * np.arange(out_len)) // 3
    return seq[idx]


# ---------------------------------------------------------------------------
# checkpoint container round trip
# ---------------------------------------------------------------------------


def save_quantizers(q: Quantizers, path) -> None:
    """Write the codebooks to `path` and their fit statistics to its .json
    sidecar."""
    tensors = {"phonetic/centroids": q.phonetic.centroids}
    for j, book in enumerate(q.rvq.layers):
        tensors[f"rvq/layer{j}/centroids"] = book.centroids
    checkpoint.save_tensors(path, tensors)
    meta = {
        "phonetic": {
            "k": q.phonetic.k,
            "iterations_run": q.phonetic.iterations_run,
            "final_distortion": q.phonetic.final_distortion,
        },
        "rvq": {
            "n_layers": q.rvq.n_layers,
            "k": q.rvq.vocab,
            "residual_energy": q.rvq.residual_energy,
            "layer_distortions": [b.final_distortion for b in q.rvq.layers],
        },
    }
    checkpoint.write_atomic(Path(path).with_suffix(".json"), json.dumps(meta, indent=2) + "\n")


def load_quantizers(path) -> Quantizers:
    """Read quantizers written by `save_quantizers`; the .json sidecar
    restores the fit statistics, and a missing or malformed one raises
    CheckpointError naming it. A container that is not a
    quantizer set raises CheckpointError: one without a phonetic codebook or
    a first RVQ layer, with tensors of other names, or whose codebooks are
    not (K, d) matrices with one shape for every RVQ layer."""
    tensors = checkpoint.load_tensors(path)
    n_layers = 0
    while f"rvq/layer{n_layers}/centroids" in tensors:
        n_layers += 1
    names = ["phonetic/centroids"] + [f"rvq/layer{j}/centroids" for j in range(n_layers)]
    if n_layers == 0 or set(tensors) != set(names):
        raise checkpoint.CheckpointError(
            f"{path}: not a quantizer set: want phonetic/centroids and rvq/layer0..N/centroids, "
            f"got {sorted(tensors)[:4]}{' ...' if len(tensors) > 4 else ''}"
        )
    shapes = [tensors[n].shape for n in names]
    if any(len(s) != 2 or 0 in s for s in shapes) or len(set(shapes[1:])) != 1:
        raise checkpoint.CheckpointError(f"{path}: codebook shapes {shapes} are not one (K, d) per RVQ layer")
    phonetic = Codebook(centroids=tensors["phonetic/centroids"])
    books = [Codebook(centroids=tensors[n]) for n in names[1:]]
    rvq = RvqModel(layers=books)
    with checkpoint.sidecar(Path(path).with_suffix(".json")) as meta:
        phonetic.iterations_run = meta["phonetic"]["iterations_run"]
        phonetic.final_distortion = meta["phonetic"]["final_distortion"]
        rvq.residual_energy = meta["rvq"]["residual_energy"]
        for book, d in zip(books, meta["rvq"]["layer_distortions"], strict=True):
            book.final_distortion = d
    return Quantizers(phonetic=phonetic, rvq=rvq)
