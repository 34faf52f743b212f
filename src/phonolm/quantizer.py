"""Discretization layer: K-means tokens, residual vector quantization, and
the 2:3 token-rate upsampler.

Nearest-centroid assignment everywhere (chunked over rows) screens with one
matrix product per chunk, [x | 1] @ [-2 c^T; ||c||^2], which is
||x - c||^2 - ||x||^2 up to a bounded rounding error, and rechecks near-ties
with explicit squared differences. Ids (first minimum on ties) and distances
are therefore exactly those of a brute-force search over explicit squared
differences. Lloyd rounds after the first search only the points whose
nearest centroid could have changed: each point carries a lower bound on
its distance to every other centroid (Hamerly, "Making k-means even faster",
SDM 2010), and a point whose explicit distance to its own centroid stays
below that bound by the screen's margin keeps its id, which is then the
strict explicit argmin. So fits are bit-identical to Lloyd's algorithm over
the brute-force search. Empty clusters are repaired by moving their centroid
onto the point farthest from its current centroid, which keeps Lloyd's
distortion monotone. k-means++ seeding screens each new seed against every
point with one product of the same form, and computes the explicit distance
only where the screen cannot prove it leaves the point's D^2 as it is, so
the seeds too are those of explicit passes over every point.

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
_EPS = np.finfo(np.float64).eps
_ETA = np.finfo(np.float64).smallest_subnormal
_MAX = np.finfo(np.float64).max


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
    """(first argmin, rows to recheck, runner-up value) of a C-contiguous
    screened block g, as `_nearest` describes; overwrites each row's minimum
    with inf."""
    flat = g.reshape(-1)
    best = g.argmin(axis=1)
    at = np.arange(0, flat.size, g.shape[1]) + best
    bound = flat[at] + 2.0 * tol
    flat[at] = np.inf
    second = flat[at - best + g.argmin(axis=1)]
    return best, (second <= bound) | ~np.isfinite(bound), second


def _tol(x_sq: np.ndarray, c_sq: np.ndarray, d: int) -> np.ndarray:
    """The screen's margin tol for rows of squared norms `x_sq` against
    centroids of squared norms `c_sq` in dimension d (see `_nearest`)."""
    c_max = np.sqrt(c_sq.max(initial=0.0))
    return (2 * d + 4) * (_EPS * (np.sqrt(x_sq) + c_max) ** 2 + _ETA)


def _nearest(vectors: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray | None = None) -> tuple:
    """(ids, squared distances) of the nearest centroid per vector. Given
    `x_sq`, the rows' squared norms, it also returns each row's lower bound
    on its distance to every centroid but the nearest.

    Ids and distances equal the explicit search `((x - c) ** 2).sum()` +
    argmin, ties to the lowest centroid index (argmin picks the first min).

    Screening uses g = [x | 1] @ [-2 c^T; ||c||^2], one matrix product per
    chunk. Let D be the exact squared distance, so that g estimates
    D - ||x||^2; that per-row constant moves neither the argmin nor the
    runner-up test. Let e be D's explicit float value, d the dimension,
    u = eps / 2, gamma_n = n u / (1 - n u) and S = (|x| + max|c|)^2.
    - Every term of e is (x_k - c_k)^2 to within a relative (1 + u)^3, and
      summing d non-negative terms in any order adds at most gamma_(d-1),
      so |e - D| <= gamma_(d+2) S.
    - The computed ||c||^2 is within gamma_d ||c||^2, and g is a (d+1)-term
      dot product whose terms sum in absolute value to at most
      2 |x||c| + (1 + gamma_d) ||c||^2. So, in any summation order, FMA or
      not, g is within gamma_(2d+1) S of D - ||x||^2 (using
      gamma_a + gamma_b + gamma_a gamma_b <= gamma_(a+b)), and g + ||x||^2
      is within gamma_(3d+3) S of e.
    - tol = (2d + 4)(eps S + eta) = (4d + 8) u S + (2d + 4) eta, with eta
      the smallest subnormal. Its first term exceeds gamma_(3d+3) S by
      (d + 5) u S, which covers rounding in tol itself (its scale comes from
      the computed norms) and in the bound min(g) + 2 tol. Below the normal
      range the relative model fails, and each product may be off by
      eta / 2 absolutely; the (2d + 4) eta term covers the at most
      (3d + 1) such products.
    - If g_j > min(g) + 2 tol for every centroid j but the screened one,
      then e_j > min(g) + ||x||^2 + tol >= e at the screened one, so it is
      the explicit argmin. Rows where a second centroid is within 2 tol, or
      where tol is not finite, are rechecked with the explicit form.

    The bound of a screened row is sqrt(max(0, g2 + ||x||^2 - tol)), g2 the
    runner-up. For every centroid j but the nearest,
    D_j >= g_j + ||x||^2 - gamma_(3d+1) S (||x||^2 is computed within
    gamma_d), and tol leaves (d + 7) u S for the rounding of the sum, the
    difference and the square root, which is at most about 4 u S. A
    rechecked row's bound is 0.

    `_screen` reads min(g) at the row's argmin (the first NaN on a NaN row,
    so the bound is NaN there) and the second best as the argmin of the row
    with that entry set to inf: a row is rechecked when the second best is
    <= min(g) + 2 tol or that bound is not finite, which is exactly when
    more than one entry is <= a finite bound. With K = 1 the runner-up is
    inf, and so is the bound.
    """
    n, d = vectors.shape
    ids = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    lower = None if x_sq is None else np.empty(n, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    right = np.concatenate([-2.0 * centroids.T, c_sq[None, :]])  # scaling by -2 is exact
    left = np.ones((min(n, _ASSIGN_CHUNK), d + 1))
    for start in range(0, n, _ASSIGN_CHUNK):
        chunk = vectors[start : start + _ASSIGN_CHUNK]
        rows = slice(start, start + chunk.shape[0])
        left[: chunk.shape[0], :d] = chunk
        chunk_sq = np.einsum("ij,ij->i", chunk, chunk) if x_sq is None else x_sq[rows]
        tol = _tol(chunk_sq, c_sq, d)
        best, near, second = _screen(left[: chunk.shape[0]] @ right, tol)
        if near.any():
            sub = chunk[near]
            best[near] = ((sub[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        ids[rows] = best
        diff = centroids.take(best, axis=0)
        np.subtract(chunk, diff, out=diff)
        np.square(diff, out=diff)
        np.sum(diff, axis=1, out=dists[rows])
        if lower is not None:
            bound = second + chunk_sq - tol
            np.sqrt(np.maximum(bound, 0.0, out=bound), out=lower[rows])
            lower[rows][near] = 0.0
    return (ids, dists) if lower is None else (ids, dists, lower)


def _draw(weights: np.ndarray, total: float, rng: np.random.Generator, cdf: np.ndarray) -> int:
    """The index `rng.choice(weights.size, p=weights / total)` draws, made
    the same way (p's cumsum divided by its last element, one
    `rng.random()`, `searchsorted(side="right")`) in the buffer `cdf`, but
    without building and validating a new p. Raises ValueError, as choice
    does, when `total` is not finite."""
    if not np.isfinite(total):
        raise ValueError(f"k-means++ weights sum to {total}")
    np.divide(weights, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp_init(vectors, columns, x_sq, k, rng) -> np.ndarray:
    """k-means++ seeding: each next centroid is a point drawn with
    probability ~ d2, its explicit squared distance `((x - c) ** 2).sum()`
    to the nearest centroid drawn so far. `columns` is `vectors.T`
    (contiguous) and `x_sq` the rows' squared norms.

    d2 starts at inf, and each centroid c but the last (whose distances no
    draw reads) lowers it to min(d2, e), e the explicit distance to c. One
    product over `columns` screens every row first: r = g + ||x||^2 - d2,
    with g = (-2 c)^T x + ||c||^2. Only rows where r > M fails, for
    M = (2d + 4)(2 eps (||x||^2 + ||c||^2) + eta), get e (in row chunks,
    through one buffer; every row for the first centroid, where r is -inf),
    and on every other row e >= d2, so min keeps d2.
    So d2 and the draws are those of explicit passes over every row. With
    the notation of `_nearest` (E the exact squared distance):
    - g is one summation order of `_nearest`'s (d+1)-term product, so it is
      within gamma_(2d+1) S of E - ||x||^2; ||x||^2 is computed within
      gamma_d S and e within gamma_(d+2) S of E. Adding g and ||x||^2 rounds
      by at most u (1 + gamma_(3d+1)) S, so the computed t = g + ||x||^2 is
      within gamma_(4d+4) S of e.
    - r is t - d2 rounded, with d2 the very value min compares against.
      r > M >= 0 gives t > d2 and t - d2 >= r / (1 + u) > M / (1 + u).
    - S <= 2 (||x||^2 + ||c||^2), so M, with the rounding of the norms and
      of M itself (gamma_(d+3) of it), is at least
      (1 - gamma_(d+3)) (4d + 8) u S. That exceeds (1 + u) gamma_(4d+4) S
      for any d below about 10^7. Below the normal range each of the 4d
      products in e, g and the two norms may be off by eta / 2 absolutely
      (sums there are exact), and M's (2d + 4) eta covers their 2d eta.
    - So e >= t - gamma_(4d+4) S > d2 on every skipped row.
    - The bounds need sums that do not overflow. When every ||x||^2 is at
      most a sixteenth of the largest float (and so is ||c||^2: c is a
      row), S is at most about a quarter of it, and no sum in e, g, t, r or
      M can overflow. Otherwise M is inf (NaN where x and c are 0) and every
      row is explicit. A NaN r or M also fails r > M, so NaN rows are never
      skipped: a NaN corpus still raises at the first draw.
    """
    n, d = vectors.shape
    centroids = np.empty((k, d))
    diff, e = np.empty((min(n, _ASSIGN_CHUNK), d)), np.empty(min(n, _ASSIGN_CHUNK))
    d2, r, margin = np.full(n, np.inf), np.empty(n), np.empty(n)
    slope = 2 * (2 * d + 4) * _EPS if x_sq.max(initial=0.0) <= _MAX / 16 else np.inf
    centroids[0] = vectors[int(rng.integers(n))]
    for j in range(1, k):
        c = centroids[j - 1]
        c_sq = c @ c
        np.matmul(-2.0 * c, columns, out=r)  # scaling by -2 is exact
        r += c_sq
        r += x_sq
        r -= d2
        np.add(x_sq, c_sq, out=margin)
        margin *= slope
        margin += (2 * d + 4) * _ETA
        search = np.flatnonzero(~(r > margin))
        for start in range(0, search.size, _ASSIGN_CHUNK):
            rows = search[start : start + _ASSIGN_CHUNK]
            part = vectors.take(rows, axis=0, out=diff[: rows.size])
            np.subtract(part, c, out=part)
            np.square(part, out=part)
            dist = np.sum(part, axis=1, out=e[: rows.size])
            d2[rows] = np.minimum(d2.take(rows), dist, out=dist)
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))  # all points coincide with chosen seeds
        else:
            idx = _draw(d2, total, rng, r)  # r is free until the next screen
        centroids[j] = vectors[idx]
    return centroids


def kmeans_fit(vectors: np.ndarray, k: int, max_iters: int = 50, seed: int = 0) -> Codebook:
    """Lloyd's algorithm from a k-means++ seeding.

    Stops at assignment fixpoint or after `max_iters` assign/update rounds.
    Distortion (mean squared distance) is recorded after every assignment and
    is non-increasing by construction.
    """
    return _kmeans(vectors, k, max_iters, seed)[0]


def _assign(vectors, x_sq, centroids, ids, lower) -> tuple:
    """One Lloyd assignment: (ids, squared distances) exactly as
    `_nearest(vectors, centroids)` gives them, and each row's bound. Given
    the last round's `ids` and their bounds `lower` (see `_kmeans`), only the
    rows whose bound does not keep their id are searched, and `lower` is
    updated in place."""
    if ids is None:
        return _nearest(vectors, centroids, x_sq)
    n, d = vectors.shape
    e = np.empty(n)
    for start in range(0, n, _ASSIGN_CHUNK):  # chunks keep the temporaries small
        rows = slice(start, start + _ASSIGN_CHUNK)
        diff = centroids.take(ids[rows], axis=0)
        np.subtract(vectors[rows], diff, out=diff)
        np.square(diff, out=diff)
        np.sum(diff, axis=1, out=e[rows])
    search = np.flatnonzero(~(e + _tol(x_sq, np.einsum("ij,ij->i", centroids, centroids), d) < lower * lower))
    ids = ids.copy()
    for start in range(0, search.size, _ASSIGN_CHUNK):
        part = search[start : start + _ASSIGN_CHUNK]
        ids[part], e[part], lower[part] = _nearest(vectors.take(part, axis=0), centroids, x_sq.take(part))
    return ids, e, lower


def _drop_bounds(lower: np.ndarray, ids: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
    """Lower each point's bound in place for centroids moved from `old` to
    `new`, by the largest shift among the centroids other than its own
    (see `_kmeans`)."""
    step = new - old
    shift = np.sqrt(np.einsum("ij,ij->i", step, step)) * (1.0 + (old.shape[1] + 4) * _EPS)
    top = int(shift.argmax())
    largest = shift[top]
    shift[top] = 0.0
    lower -= np.where(ids == top, shift.max(), largest)
    lower *= 1.0 - _EPS
    np.maximum(lower, 0.0, out=lower)


def _kmeans(vectors, k, max_iters, seed) -> tuple:
    """kmeans_fit's (Codebook, nearest-centroid ids of `vectors` under it).

    Every round after the first searches only the points whose nearest
    centroid could have changed (Hamerly, SDM 2010). A point x with id a
    keeps a lower bound l on its exact distance to every centroid c_j,
    j != a. With the notation of `_nearest`:
    - A search sets l as `_nearest` describes.
    - An update moves each c_j by s_j, and |x - c_j'| >= |x - c_j| - s_j,
      so l falls by the largest s_j over j != a: the largest shift, or the
      second largest (0 when K = 1) for points whose own centroid moved
      most. The computed shift is within gamma_(d+3) of s_j, so scaling it
      by 1 + (d + 4) eps makes it an upper bound s. l - s and the product
      below each round up by at most u of themselves, so (l - s)(1 - eps),
      as computed, stays below the exact l - s. A negative bound becomes 0.
    - Each round computes e, the explicit squared distance to c_a, which the
      distortion history needs anyway, and the screen's tol for the current
      centroids. If e + tol < l^2, then for every j != a,
      e_j >= D_j - gamma_(d+2) S >= l^2 - gamma_(d+2) S > e: l <= |x - c_j|
      gives l^2 <= S, and tol exceeds gamma_(d+2) S plus the rounding of
      e + tol and l^2 (below the normal range, their absolute errors). So a
      is the strict explicit argmin, the id a search returns, and e is the
      distance it returns.
    The kept ids and distances are therefore bit-identical to searching
    every point, and so are the histories and centroids.
    """
    vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
    if vectors.ndim != 2:
        raise ShapeError(f"expected (n, d) vectors, got {vectors.shape}")
    n = vectors.shape[0]
    if k < 1 or max_iters < 0:
        raise ContractError(f"need k >= 1 and max_iters >= 0, got k={k}, max_iters={max_iters}")
    if n < k:
        raise ContractError(f"need at least k={k} vectors, got {n}")
    columns = np.ascontiguousarray(vectors.T)
    x_sq = np.einsum("ij,ij->i", vectors, vectors)
    centroids = _kmeans_pp_init(vectors, columns, x_sq, k, np.random.default_rng([seed, 0x6B6D]))
    ids = lower = None
    history = []
    iters = 0
    for _ in range(max_iters):
        new, d2, lower = _assign(vectors, x_sq, centroids, ids, lower)
        history.append(float(d2.mean()))
        if ids is not None and np.array_equal(new, ids):
            break  # fixpoint: ids and d2 already belong to the final centroids
        ids = new
        iters += 1
        old = centroids.copy()
        # bincount adds in index order, like np.add.at, so sums are bit-identical
        sums = np.stack([np.bincount(ids, weights=col, minlength=k) for col in columns], axis=1)
        counts = np.bincount(ids, minlength=k)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        empties = np.flatnonzero(~occupied)
        if empties.size:
            _, dist_now, _ = _nearest(vectors, centroids[occupied], x_sq)
            for e in empties:
                far = int(dist_now.argmax())
                centroids[e] = vectors[far]
                dist_now[far] = 0.0
        _drop_bounds(lower, ids, old, centroids)
    else:  # no fixpoint within max_iters: assign to the last update's centroids
        ids, d2, lower = _assign(vectors, x_sq, centroids, ids, lower)
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
    if layers < 1:
        raise ContractError(f"need layers >= 1, got {layers}")
    residual = np.array(vectors, dtype=np.float64)
    books = []
    energy = []
    for j in range(layers):
        book, ids = _kmeans(residual, k, max_iters, seed + j)
        residual -= book.centroids[ids]
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
