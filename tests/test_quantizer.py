import itertools
from fractions import Fraction

import numpy as np
import pytest

from phonolm.numerics import ContractError
from phonolm import quantizer as qz


def test_kmeans_each_point_its_own_centroid():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    book = qz.kmeans_fit(pts, k=4, seed=0)
    assert book.final_distortion == 0.0
    got = {tuple(c) for c in book.centroids}
    assert got == {tuple(p) for p in pts}


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    book = qz.kmeans_fit(pts, k=1, seed=0)
    np.testing.assert_allclose(book.centroids[0], pts.mean(axis=0), atol=1e-12)


def test_kmeans_two_cluster_global_optimum():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    book = qz.kmeans_fit(pts, k=2, seed=1)
    got = sorted(map(tuple, book.centroids))
    assert got == [(0.0, 0.5), (10.0, 0.5)]
    # brute force over all 2-partitions confirms this is the global optimum
    best = np.inf
    for mask in itertools.product([0, 1], repeat=4):
        if len(set(mask)) < 2:
            continue
        cost = 0.0
        for g in (0, 1):
            sub = pts[np.asarray(mask) == g]
            cost += ((sub - sub.mean(axis=0)) ** 2).sum()
        best = min(best, cost / len(pts))
    assert abs(book.final_distortion - best) < 1e-12


def test_kmeans_rejects_k_above_n():
    with pytest.raises(ContractError):
        qz.kmeans_fit(np.zeros((3, 2)), k=4)


@pytest.mark.parametrize("fit, kw, named", [
    (qz.kmeans_fit, {"k": 0}, "k >= 1"),
    (qz.rvq_fit, {"k": 0}, "k >= 1"),
    (qz.rvq_fit, {"layers": 0}, "layers >= 1"),
    (qz.kmeans_fit, {"k": 2, "max_iters": -1}, "max_iters >= 0"),
    (qz.rvq_fit, {"max_iters": -1}, "max_iters >= 0"),
])
def test_fits_reject_counts_below_their_least(fit, kw, named):
    # k=0 failed inside the seeding, layers=0 gave a model without a dim,
    # and max_iters=-1 ran no round
    with pytest.raises(ContractError, match=named):
        fit(np.random.default_rng(0).normal(size=(40, 3)), **kw)


def test_lloyd_distortion_monotone():
    rng = np.random.default_rng(2)
    for trial in range(10):
        pts = rng.normal(size=(200, 5)) * rng.uniform(0.5, 2.0)
        book = qz.kmeans_fit(pts, k=8, max_iters=30, seed=trial)
        h = book.distortion_history
        assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))


def test_kmeans_fit_is_lloyd_fixpoint():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(120, 4))
    book = qz.kmeans_fit(pts, k=6, max_iters=100, seed=3)
    assert book.iterations_run < 100
    # one more Lloyd update from the fitted centroids returns them bit for bit
    ids = qz.kmeans_assign(pts, book)
    counts = np.bincount(ids, minlength=6)
    assert counts.min() > 0
    sums = np.stack([np.bincount(ids, weights=col, minlength=6) for col in pts.T], axis=1)
    np.testing.assert_array_equal(sums / counts[:, None], book.centroids)


def test_kmeans_determinism():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(100, 4))
    a = qz.kmeans_fit(pts, k=7, seed=11)
    b = qz.kmeans_fit(pts, k=7, seed=11)
    assert a.centroids.tobytes() == b.centroids.tobytes()


def test_assign_exact_centroid_and_tie_rule():
    book = qz.Codebook(centroids=np.array([[float(i), 0.0] for i in range(8)]))
    assert qz.kmeans_assign(np.array([[5.0, 0.0]]), book)[0] == 5
    # equidistant between centroids 2 and 3 -> lowest index
    assert qz.kmeans_assign(np.array([[2.5, 0.0]]), book)[0] == 2


def test_assign_matches_exhaustive_search():
    rng = np.random.default_rng(5)
    book = qz.Codebook(centroids=rng.normal(size=(16, 6)))
    vecs = rng.normal(size=(100, 6))
    got = qz.kmeans_assign(vecs, book)
    for i in range(vecs.shape[0]):
        best, best_d = -1, np.inf
        for c in range(16):
            d = float(((vecs[i] - book.centroids[c]) ** 2).sum())
            if d < best_d:
                best, best_d = c, d
        assert got[i] == best


def test_assign_dim_mismatch():
    book = qz.Codebook(centroids=np.zeros((4, 3)))
    with pytest.raises(ContractError):
        qz.kmeans_assign(np.zeros((2, 5)), book)


def test_rvq_perfectly_quantizable_input():
    rng = np.random.default_rng(6)
    values = rng.normal(size=(4, 3)) * 3
    vecs = values[rng.integers(0, 4, size=64)]
    model = qz.rvq_fit(vecs, layers=3, k=4, seed=6)
    assert model.layers[0].final_distortion < 1e-20
    assert model.residual_energy[0] < 1e-20
    # later layers degenerate to (near) zero-vector centroids
    for book in model.layers[1:]:
        assert np.abs(book.centroids).max() < 1e-12
    decoded = qz.rvq_decode(qz.rvq_encode(vecs, model), model)
    np.testing.assert_allclose(decoded, vecs, atol=1e-12)


def test_rvq_residual_energy_non_increasing():
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(500, 8))
    model = qz.rvq_fit(vecs, layers=8, k=16, seed=7)
    e = model.residual_energy
    assert all(b <= a + 1e-12 for a, b in zip(e, e[1:]))
    assert len(e) == 8


@pytest.mark.parametrize("max_iters", [2, 50])  # stops at max_iters / at a fixpoint
def test_rvq_fit_searches_only_inside_its_kmeans_fits(monkeypatch, max_iters):
    rng = np.random.default_rng(12)
    vecs = rng.normal(size=(300, 4))
    nearest, searches = qz._nearest, []
    monkeypatch.setattr(qz, "_nearest", lambda v, c, *rest: searches.append(len(c)) or nearest(v, c, *rest))
    model = qz.rvq_fit(vecs, layers=3, k=6, max_iters=max_iters, seed=12)
    in_rvq = len(searches)
    # the same fits on their own, with the residuals made from unrecorded searches
    searches.clear()
    residual = vecs
    for j, book in enumerate(model.layers):
        alone = qz.kmeans_fit(residual, 6, max_iters=max_iters, seed=12 + j)
        np.testing.assert_array_equal(alone.centroids, book.centroids)
        residual = residual - book.centroids[nearest(residual, book.centroids)[0]]
        assert model.residual_energy[j] == float((residual**2).sum(axis=1).mean())
    assert in_rvq == len(searches)


def test_rvq_more_layers_reconstruct_better_held_out():
    rng = np.random.default_rng(8)
    train = rng.normal(size=(600, 6))
    held = rng.normal(size=(200, 6))
    model = qz.rvq_fit(train, layers=8, k=8, seed=8)
    codes = qz.rvq_encode(held, model)
    mse8 = ((qz.rvq_decode(codes, model) - held) ** 2).mean()
    mse1 = ((qz.rvq_decode(codes, model, n_layers=1) - held) ** 2).mean()
    assert mse8 <= mse1


def test_rvq_per_frame_error_weakly_decreases_with_layers_on_world_frames():
    from phonolm import tokenworld as tw

    spec = tw.WorldSpec(seed=9)
    rng = np.random.default_rng(9)
    utts = [tw.sample_utterance(spec, int(rng.integers(8)), tw.CLEAN, rng) for _ in range(40)]
    frames = np.concatenate([u.acoustic_frames for u in utts])
    model = qz.rvq_fit(frames[: frames.shape[0] // 2], layers=8, k=32, seed=9)
    held = frames[-1000:]
    codes = qz.rvq_encode(held, model)
    # Greedy RVQ does not guarantee monotone error for every single frame
    # (a residual can overshoot past zero); the frame-averaged error does
    # shrink with every extra decode layer, which is the property that
    # realizes "each layer adds information".
    prev = None
    for j in range(1, 9):
        err = ((qz.rvq_decode(codes, model, n_layers=j) - held) ** 2).sum(axis=1).mean()
        if prev is not None:
            assert err <= prev + 1e-12
        prev = err


def test_rvq_telescoping_residual():
    rng = np.random.default_rng(10)
    train = rng.normal(size=(300, 4))
    model = qz.rvq_fit(train, layers=4, k=8, seed=10)
    v = rng.normal(size=(50, 4))
    codes = qz.rvq_encode(v, model)
    residual = v.copy()
    for j in range(4):
        residual = residual - model.layers[j].centroids[codes[:, j]]
        recon = qz.rvq_decode(codes, model, n_layers=j + 1)
        np.testing.assert_allclose(v - recon, residual, atol=1e-12)


def test_rvq_encode_centroid_sum_exact():
    rng = np.random.default_rng(11)
    train = rng.normal(size=(200, 4)) * 2
    model = qz.rvq_fit(train, layers=3, k=6, seed=11)
    v = sum(model.layers[j].centroids[[2]] for j in range(3))
    codes = qz.rvq_encode(v, model)
    np.testing.assert_allclose(qz.rvq_decode(codes, model), v, atol=1e-12)


def test_rvq_decode_all_zero_ids():
    rng = np.random.default_rng(12)
    model = qz.rvq_fit(rng.normal(size=(100, 3)), layers=4, k=5, seed=12)
    out = qz.rvq_decode(np.zeros((2, 4), dtype=np.int64), model)
    want = sum(model.layers[j].centroids[0] for j in range(4))
    np.testing.assert_allclose(out[0], want, atol=1e-12)


def test_rvq_decode_rejects_bad_ids():
    rng = np.random.default_rng(13)
    model = qz.rvq_fit(rng.normal(size=(50, 3)), layers=2, k=4, seed=13)
    with pytest.raises(ContractError):
        qz.rvq_decode(np.array([[0, 4]]), model)


def test_upsample_examples():
    np.testing.assert_array_equal(qz.upsample_tokens([7, 9]), [7, 7, 9])
    np.testing.assert_array_equal(qz.upsample_tokens([1, 2, 3, 4]), [1, 1, 2, 3, 3, 4])
    assert qz.upsample_tokens([]).size == 0


def test_upsample_length_law_and_order():
    for n in range(0, 1001):
        seq = np.arange(n)
        out = qz.upsample_tokens(seq)
        assert out.size == -(-3 * n // 2)
        if n:
            # every input token appears, in order
            kept = out[np.insert(np.diff(out) != 0, 0, True)]
            np.testing.assert_array_equal(kept, seq)


def test_quantizer_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    phon = qz.kmeans_fit(rng.normal(size=(100, 4)), k=8, seed=14)
    rvq = qz.rvq_fit(rng.normal(size=(100, 4)), layers=3, k=5, seed=14)
    q = qz.Quantizers(phonetic=phon, rvq=rvq)
    path = tmp_path / "quantizers.ckpt"
    qz.save_quantizers(q, path)
    loaded = qz.load_quantizers(path)
    np.testing.assert_array_equal(loaded.phonetic.centroids, phon.centroids)
    assert loaded.rvq.n_layers == 3
    for a, b in zip(loaded.rvq.layers, rvq.layers):
        np.testing.assert_array_equal(a.centroids, b.centroids)
    assert loaded.rvq.residual_energy == rvq.residual_energy


def test_quantizer_checkpoint_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(80, 4))
    for name in ("a", "b"):
        q = qz.Quantizers(
            phonetic=qz.kmeans_fit(pts, k=6, seed=1),
            rvq=qz.rvq_fit(pts, layers=2, k=4, seed=2),
        )
        qz.save_quantizers(q, tmp_path / f"{name}.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


# ---------------------------------------------------------------------------
# the screened nearest-centroid search against the explicit one
# ---------------------------------------------------------------------------


def _explicit_nearest(vectors, centroids):
    """Brute force over explicit squared differences, first minimum on ties."""
    d2 = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    ids = d2.argmin(axis=1)
    return ids, d2[np.arange(vectors.shape[0]), ids]


def _assert_same_as_explicit(vectors, centroids):
    ids, dists = qz._nearest(vectors, centroids)
    want_ids, want_dists = _explicit_nearest(vectors, centroids)
    np.testing.assert_array_equal(ids, want_ids)
    assert dists.tobytes() == want_dists.tobytes()


def test_nearest_duplicate_centroids_take_lowest_index():
    rng = np.random.default_rng(20)
    base = rng.normal(size=(6, 5))
    centroids = np.concatenate([base, base[::-1], base])  # every centroid three times
    vectors = np.concatenate([rng.normal(size=(300, 5)), centroids])
    _assert_same_as_explicit(vectors, centroids)
    assert qz._nearest(vectors, centroids)[0].max() < 6


def test_nearest_points_midway_between_centroids():
    rng = np.random.default_rng(21)
    # 26-bit dyadic coordinates: differences and midpoints are exact, so each
    # midpoint is an exact explicit tie, while the expanded form rounds.
    centroids = 1000.0 + rng.integers(-(2**25), 2**25, size=(12, 4)) / 2.0**20
    a, b = np.triu_indices(12, 1)
    mid = (centroids[a] + centroids[b]) / 2.0
    _assert_same_as_explicit(np.concatenate([mid, mid[:, ::-1]]), np.concatenate([centroids, centroids[:, ::-1]]))
    # a grid puts many points at exact ties with two or more centroids
    grid = np.stack(np.meshgrid(*[np.arange(-8.0, 8.5, 0.5)] * 2), axis=-1).reshape(-1, 2)
    _assert_same_as_explicit(grid, rng.integers(-8, 8, size=(16, 2)).astype(np.float64))


def test_nearest_large_offset_cancellation():
    # ||x||^2 and ||c||^2 are ~1e13 while the distances are ~1e-6, so the
    # expanded form alone has no correct bits; the recheck must catch it.
    rng = np.random.default_rng(22)
    centroids = 1e6 + 1e-3 * rng.normal(size=(16, 6))
    vectors = 1e6 + 1e-3 * rng.normal(size=(500, 6))
    _assert_same_as_explicit(vectors, centroids)
    _assert_same_as_explicit(vectors, centroids - 1e6)  # far away: one side large


@pytest.mark.parametrize(
    "n", [0, 1, qz._ASSIGN_CHUNK - 1, qz._ASSIGN_CHUNK, qz._ASSIGN_CHUNK + 1, 2 * qz._ASSIGN_CHUNK + 3]
)
def test_nearest_chunk_boundaries(n):
    rng = np.random.default_rng(23)
    centroids = rng.normal(size=(9, 3))
    _assert_same_as_explicit(rng.normal(size=(n, 3)), centroids)


def test_nearest_non_finite_inputs_match_explicit():
    rng = np.random.default_rng(24)
    centroids = rng.normal(size=(5, 3))
    vectors = rng.normal(size=(8, 3))
    vectors[2, 1] = np.nan
    vectors[4] = 1e200
    # at 1e200 the expanded form is inf - inf = NaN everywhere, yet the
    # explicit distances to the two large centroids are finite and distinct
    huge = np.array([[1e200 * (1 + 1e-10)] * 3, [1e200] * 3])
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_as_explicit(vectors, centroids)
        _assert_same_as_explicit(vectors, np.concatenate([huge, centroids]))


def _counting_screen(g, tol):
    """The screen as a count: rows with a second entry within 2 tol of the
    minimum, or with a bound that is not finite."""
    bound = g.min(axis=1) + 2.0 * tol
    return g.argmin(axis=1), (np.count_nonzero(g <= bound[:, None], axis=1) > 1) | ~np.isfinite(bound)


def _assert_screen_matches_count(g, tol):
    want_best, want_near = _counting_screen(g, tol)
    best, near, second = qz._screen(g.copy(), tol)
    np.testing.assert_array_equal(best, want_best)
    np.testing.assert_array_equal(near, want_near)
    # the runner-up value: the second smallest entry (inf when K = 1) of rows without NaN
    runner_up = np.sort(g, axis=1)[:, 1] if g.shape[1] > 1 else np.full(g.shape[0], np.inf)
    plain = ~np.isnan(g).any(axis=1)
    np.testing.assert_array_equal(second[plain], runner_up[plain])


def test_screen_matches_the_counting_screen_on_adversarial_rows():
    inf, nan = np.inf, np.nan
    above = np.nextafter(2.0, 3.0)
    rows = [  # (row, tol)
        ([1.0, 1.0, 3.0], 0.0),            # exact tie at the minimum
        ([3.0, 1.0, 1.0, 1.0], 0.0),       # three-way tie after the first entry
        ([0.0, 2.0, 5.0], 1.0),            # second entry exactly at the bound
        ([0.0, above, 5.0], 1.0),          # ... and one ulp above it
        ([2.0, 5.0, 0.0], 1.0),
        ([nan, 1.0, 2.0], 0.5),            # NaN first, NaN later, all NaN
        ([1.0, 9.0, nan], 0.5),
        ([nan, nan], 0.5),
        ([inf, 1.0, inf], 0.5),            # +inf around a finite minimum, all +inf
        ([inf, inf, inf], 0.5),
        ([1.0, -inf, -inf], 0.5),          # -inf minimum, tied and alone
        ([-inf, 4.0], 0.5),
        ([1.0, 8.0, 9.0], inf),            # tol not finite
        ([1.0, 1.0], inf),
        ([3.0], 0.0),                      # K = 1
        ([nan], 1.0),
        ([inf], 1.0),
        ([-inf], 1.0),
        ([1.0, 2.0], 0.5),                 # K = 2 at, below and above the bound
        ([2.0, 1.0], 0.4),
        ([1.0, 2.0], 0.6),
    ]
    with np.errstate(invalid="ignore"):
        for row, tol in rows:
            _assert_screen_matches_count(np.array([row]), np.array([tol]))
        # random blocks drawn from the same values
        rng = np.random.default_rng(28)
        pool = np.array([0.0, 1.0, 1.0, 2.0, above, -1.0, nan, inf, -inf])
        for k in (1, 2, 3, 5, 8):
            g = rng.choice(pool, size=(400, k))
            tol = rng.choice(np.array([0.0, 0.5, 1.0, inf]), size=400)
            _assert_screen_matches_count(g, tol)


def test_nearest_single_centroid_matches_explicit():
    rng = np.random.default_rng(29)
    vectors = rng.normal(size=(qz._ASSIGN_CHUNK + 5, 4))
    vectors[3] = np.nan
    vectors[7] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_as_explicit(vectors, rng.normal(size=(1, 4)))
        _assert_same_as_explicit(vectors, np.full((1, 4), 1e200))


def test_bincount_sums_match_add_at_bit_for_bit():
    rng = np.random.default_rng(26)
    vectors = rng.normal(size=(5000, 7)) * rng.uniform(1e-3, 1e3, size=7)
    ids = rng.integers(0, 33, size=5000)
    want = np.zeros((33, 7))
    np.add.at(want, ids, vectors)
    got = np.stack([np.bincount(ids, weights=col, minlength=33) for col in vectors.T], axis=1)
    assert got.tobytes() == want.tobytes()


def test_kmeans_fixpoint_needs_no_extra_search(monkeypatch):
    rng = np.random.default_rng(27)
    pts = rng.normal(size=(200, 3))
    calls = []
    real = qz._nearest

    def counting(v, c, *rest):
        calls.append(c.copy())
        return real(v, c, *rest)

    def final_searches(book):
        return [i for i, c in enumerate(calls) if np.array_equal(c, book.centroids)]

    monkeypatch.setattr(qz, "_nearest", counting)
    book = qz.kmeans_fit(pts, k=5, max_iters=100, seed=27)
    assert book.iterations_run < 100  # stopped at a fixpoint
    # at most one search per update round plus one in the round that found
    # the fixpoint, and none after it: only that round may see the final centroids
    assert len(calls) <= book.iterations_run + 1
    assert final_searches(book) in ([], [len(calls) - 1])
    assert book.final_distortion == book.distortion_history[-1]
    calls.clear()
    capped = qz.kmeans_fit(pts, k=5, max_iters=2, seed=27)
    # two rounds, then one assignment to the final centroids
    assert len(calls) <= 3
    assert final_searches(capped) == [len(calls) - 1]
    assert capped.distortion_history[-1] == capped.final_distortion


# ---------------------------------------------------------------------------
# bound-pruned Lloyd rounds against a reference that searches every point
# ---------------------------------------------------------------------------


def _reference_kmeans(vectors, k, max_iters, seed):
    """Lloyd's algorithm as `kmeans_fit` defines it, with every point searched
    explicitly in every round: k-means++ seeding through `rng.choice`,
    explicit distances with first-min ties, np.add.at sums and the same
    empty-cluster repair. Returns (centroids, history, iterations, ids,
    whether an empty cluster was repaired)."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    rng = np.random.default_rng([seed, 0x6B6D])
    centroids = np.empty((k, vectors.shape[1]))
    centroids[0] = vectors[int(rng.integers(n))]
    d2 = ((vectors - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centroids[j] = vectors[idx]
        d2 = np.minimum(d2, ((vectors - centroids[j]) ** 2).sum(axis=1))
    history, ids, iters, repaired = [], None, 0, False
    for _ in range(max_iters):
        new, dist = _explicit_nearest(vectors, centroids)
        history.append(float(dist.mean()))
        if ids is not None and np.array_equal(new, ids):
            break
        ids = new
        iters += 1
        sums = np.zeros_like(centroids)
        np.add.at(sums, ids, vectors)
        counts = np.bincount(ids, minlength=k)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        if not occupied.all():
            repaired = True
            _, dist_now = _explicit_nearest(vectors, centroids[occupied])
            for empty in np.flatnonzero(~occupied):
                far = int(dist_now.argmax())
                centroids[empty] = vectors[far]
                dist_now[far] = 0.0
    else:
        ids, dist = _explicit_nearest(vectors, centroids)
    final = float(dist.mean())
    if not history or final != history[-1]:
        history.append(final)
    return centroids, history, iters, ids, repaired


def _assert_fit_matches_reference(vectors, k, max_iters, seed):
    """The fit equals the reference byte for byte; returns the reference's
    repaired flag."""
    book, ids = qz._kmeans(vectors, k, max_iters, seed)
    centroids, history, iters, want_ids, repaired = _reference_kmeans(vectors, k, max_iters, seed)
    assert book.centroids.tobytes() == centroids.tobytes()
    assert book.distortion_history == history
    assert book.final_distortion == history[-1]
    assert book.iterations_run == iters
    np.testing.assert_array_equal(ids, want_ids)
    return repaired


def test_fits_byte_identical_to_explicit_search():
    from phonolm import tokenworld as tw

    corpus = tw.build_corpus(tw.WorldSpec(seed=25), 30, 2, np.random.default_rng(25))
    phonetic = np.concatenate([u.phonetic_frames for u in corpus.train])
    acoustic = np.concatenate([u.acoustic_frames for u in corpus.train])
    # the seeding alone, capped fits, and fits run to their fixpoints
    for max_iters in (0, 15, 100):
        _assert_fit_matches_reference(phonetic, 32, max_iters, 25)
        model = qz.rvq_fit(acoustic, layers=4, k=16, max_iters=max_iters, seed=25)
        residual, codes = acoustic, []
        for j, book in enumerate(model.layers):
            centroids, history, iters, ids, _ = _reference_kmeans(residual, 16, max_iters, 25 + j)
            assert (book.centroids.tobytes(), book.distortion_history, book.iterations_run) == (
                centroids.tobytes(), history, iters)
            residual = residual - centroids[ids]
            assert model.residual_energy[j] == float((residual**2).sum(axis=1).mean())
        residual = acoustic
        for book in model.layers:  # greedy encoding by explicit search
            ids, _ = _explicit_nearest(residual, book.centroids)
            codes.append(ids)
            residual = residual - book.centroids[ids]
        np.testing.assert_array_equal(qz.rvq_encode(acoustic, model), np.stack(codes, axis=1))


def _duplicated_points():
    rng = np.random.default_rng(40)
    return rng.permutation(np.repeat(rng.normal(size=(30, 3)), 6, axis=0))


def _grid_points():
    # dyadic coordinates: many points lie exactly midway between two centroids
    return np.stack(np.meshgrid(*[np.arange(-4.0, 4.5, 0.5)] * 2), axis=-1).reshape(-1, 2)


def _offset_points():
    rng = np.random.default_rng(41)
    return 1e6 + 1e-3 * rng.normal(size=(300, 4))


def _tiny_points():
    # below the normal range the screen's relative error model fails
    rng = np.random.default_rng(42)
    return 2.0**-520 * rng.normal(size=(300, 3))


def _overflowing_points():
    # ||x||^2 overflows, so the seeding's screen can prove nothing, while
    # the squared distances between points stay finite
    rng = np.random.default_rng(50)
    return 1e155 + 1e151 * rng.normal(size=(200, 3))


def _large_points():
    # the largest scale at which the seeding still screens
    rng = np.random.default_rng(51)
    return 1e153 + 1e150 * rng.normal(size=(200, 3))


def _coincident_points():
    # every draw after the first takes the total <= 0 path
    return np.full((40, 3), 0.75)


def _as_many_points_as_centroids():
    return np.random.default_rng(52).normal(size=(9, 4))


@pytest.mark.parametrize("points, k", [
    (_duplicated_points, 12),
    (_grid_points, 7),
    (_offset_points, 8),
    (_tiny_points, 6),
    (_overflowing_points, 8),
    (_large_points, 8),
    (_coincident_points, 5),
    (_as_many_points_as_centroids, 9),
    (_duplicated_points, 1),
    (_grid_points, 1),
], ids=["duplicates", "midpoints", "offset", "tiny", "overflowing", "large", "coincident", "n_equals_k",
        "duplicates_k1", "midpoints_k1"])
def test_fits_on_adversarial_sets_match_the_reference_lloyd(points, k):
    vectors = points()
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(3):
            for max_iters in (0, 3, 100):  # the seeding alone, and fits after it
                _assert_fit_matches_reference(vectors, k, max_iters, seed)


def test_seeding_a_nan_corpus_raises_like_choice():
    vectors = np.random.default_rng(53).normal(size=(50, 3))
    vectors[17, 1] = np.nan
    with pytest.raises(ValueError, match="k-means\\+\\+ weights sum to nan"):
        qz.kmeans_fit(vectors, 4)


def test_seeding_computes_few_explicit_distances(monkeypatch):
    from phonolm import tokenworld as tw

    corpus = tw.build_corpus(tw.WorldSpec(seed=26), 60, 2, np.random.default_rng(26))
    vectors = np.concatenate([u.phonetic_frames for u in corpus.train])
    n, k = vectors.shape[0], 32
    real = np.subtract
    rows = []
    monkeypatch.setattr(np, "subtract", lambda a, *rest, **kw: rows.append(len(a)) or real(a, *rest, **kw))
    book = qz.kmeans_fit(vectors, k, max_iters=0, seed=26)
    monkeypatch.undo()
    # the fit's one search takes n rows; the seeding takes the rest
    assert sum(rows) - n < 0.25 * n * (k - 1)
    assert book.centroids.tobytes() == _reference_kmeans(vectors, k, 0, 26)[0].tobytes()


def test_a_fit_whose_cluster_empties_matches_the_reference_lloyd():
    # four blobs and a far outlier: in the second round a cluster empties
    # and the repair moves its centroid by about the data's spread
    rng = np.random.default_rng(36)
    centers = rng.normal(size=(4, 2)) * 5
    blobs = [c + 0.3 * rng.normal(size=(int(rng.integers(5, 40)), 2)) for c in centers]
    vectors = np.concatenate(blobs + [np.array([[40.0, 40.0]])])
    assert _assert_fit_matches_reference(vectors, 6, 100, 2)


@pytest.mark.parametrize("kind", ["random", "one_hot", "tiny"])
def test_seeding_draw_is_generator_choice(kind):
    rng = np.random.default_rng(43)
    d2 = rng.random(500) ** 3
    if kind == "one_hot":
        d2 = np.zeros(500)
        d2[137] = 2.5
    elif kind == "tiny":
        d2 *= 1e-300
    mine, theirs = np.random.default_rng(44), np.random.default_rng(44)
    cdf = np.empty(500)
    for _ in range(200):
        assert qz._draw(d2, d2.sum(), mine, cdf) == int(theirs.choice(500, p=d2 / d2.sum()))
    assert mine.random() == theirs.random()  # both consumed the same stream


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_seeding_draw_rejects_non_finite_weights_like_choice(bad):
    d2 = np.ones(10)
    d2[3] = bad
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        np.random.default_rng(0).choice(10, p=d2 / d2.sum())
    with pytest.raises(ValueError):
        qz._draw(d2, d2.sum(), np.random.default_rng(0), np.empty(10))


# ---------------------------------------------------------------------------
# the bounds, in exact rational arithmetic
# ---------------------------------------------------------------------------


def _exact_sq(x, c):
    return sum((Fraction(float(a)) - Fraction(float(b))) ** 2 for a, b in zip(x, c))


def _assert_bounds_hold(vectors, centroids, ids, lower):
    """Each bound is >= 0, and its square is at most the exact squared
    distance to every centroid but the row's own (inf only when K = 1)."""
    for x, own, bound in zip(vectors, ids, lower):
        assert bound >= 0.0
        if np.isinf(bound):
            assert centroids.shape[0] == 1
            continue
        square = Fraction(float(bound)) ** 2
        assert all(square <= _exact_sq(x, c) for j, c in enumerate(centroids) if j != own)


def _floor_sqrt(value):
    """The largest float whose exact square is <= the rational `value`."""
    root = float(np.sqrt(float(value)))
    while Fraction(root) ** 2 > value:
        root = np.nextafter(root, 0.0)
    while Fraction(np.nextafter(root, np.inf)) ** 2 <= value:
        root = np.nextafter(root, np.inf)
    return root


@pytest.mark.parametrize("points, k", [
    (lambda: np.random.default_rng(45).normal(size=(150, 4)), 9),
    (_duplicated_points, 12),
    (_grid_points, 7),
    (_offset_points, 8),
    (_tiny_points, 6),
    (lambda: np.random.default_rng(46).normal(size=(40, 3)), 1),
], ids=["random", "duplicates", "midpoints", "offset", "tiny", "k1"])
def test_screen_bounds_are_below_exact_distances(points, k):
    vectors = points()
    rng = np.random.default_rng(47)
    centroids = vectors[rng.choice(vectors.shape[0], k, replace=False)]
    for cents in (centroids, centroids + 0.25 * rng.normal(size=centroids.shape) * vectors.std()):
        ids, dists, lower = qz._nearest(vectors, cents, np.einsum("ij,ij->i", vectors, vectors))
        want_ids, want_dists = _explicit_nearest(vectors, cents)
        np.testing.assert_array_equal(ids, want_ids)
        assert dists.tobytes() == want_dists.tobytes()
        _assert_bounds_hold(vectors, cents, ids, lower)


def test_dropped_bounds_stay_below_exact_distances():
    # Start from the tightest float bound and move centroids straight at the
    # point, where the triangle inequality is exact: only the rounding slack
    # keeps the dropped bound below the new exact distances.
    rng = np.random.default_rng(48)
    for trial in range(1200):
        d = int(rng.integers(1, 6))
        x = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4)
        old = x + rng.normal(size=(3, d)) * 10.0 ** rng.integers(-3, 4)
        # large steps, and steps so small that the subtraction's rounding counts
        fraction = rng.uniform(0.0, 1.0, size=(3, 1)) if trial % 2 else 10.0 ** -rng.uniform(2, 12, size=(3, 1))
        step = fraction * (x - old)
        case = trial % 3
        if case == 0:    # own centroid 0 stays; the others approach
            step[0] = 0.0
        elif case == 1:  # own centroid 0 moves most, away from x; the others approach
            step[0] = -(1.0 + np.abs(step[1:]).sum()) * (x - old[0]) / np.linalg.norm(x - old[0])
        new = old + step
        lower = np.array([_floor_sqrt(min(_exact_sq(x, c) for c in old[1:]))])
        qz._drop_bounds(lower, np.array([0]), old, new)
        _assert_bounds_hold(x[None, :], new, [0], lower)


def test_points_of_the_centroid_that_moved_most_drop_by_the_runner_up_shift():
    old = np.zeros((3, 2))
    new = np.array([[6.0, 8.0], [0.0, 1.0], [0.0, 0.0]])  # shifts 10, 1 and 0
    lower = np.full(3, 50.0)
    qz._drop_bounds(lower, np.array([0, 1, 2]), old, new)
    # own centroid moved most: the runner-up shift counts, otherwise the largest
    np.testing.assert_allclose(lower, [49.0, 40.0, 40.0], rtol=1e-13)
    assert lower[0] < 49.0 and lower[1] < 40.0  # the slack only lowers
    # a single centroid has no other one to approach its points
    one = np.array([np.inf])
    qz._drop_bounds(one, np.array([0]), old[:1], new[:1])
    assert one[0] == np.inf


def test_a_bound_that_only_ties_the_margin_is_searched(monkeypatch):
    # A point keeps its id only when e + tol < l^2 holds strictly; find a
    # bound whose square equals e + tol in floats, and one ulp above it.
    centroids = np.array([[3.0, 0.0], [0.0, 2.0]])
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    for shift in range(64):
        x = np.array([[shift * 2.0**-40, 0.0]])
        x_sq = np.einsum("ij,ij->i", x, x)
        e = float(((x[0] - centroids[1]) ** 2).sum())
        target = e + qz._tol(x_sq, c_sq, 2)[0]
        ties = [r for r in (np.nextafter(np.sqrt(target), 0.0), np.sqrt(target), np.nextafter(np.sqrt(target), 3.0))
                if r * r == target]
        if ties:
            break
    tie = ties[0]
    searched = []
    real = qz._nearest
    monkeypatch.setattr(qz, "_nearest", lambda v, c, *rest: searched.append(len(v)) or real(v, c, *rest))
    above = np.nextafter(tie, np.inf)
    assert above * above > target
    for bound, want in ((tie, [1]), (above, [])):
        searched.clear()
        ids, dists, _ = qz._assign(x, x_sq, centroids, np.array([1]), np.array([bound]))
        assert searched == want
        assert ids[0] == 1 and dists[0] == e


def test_nearest_below_the_normal_range_matches_explicit():
    # (|x| + max|c|)^2 eps underflows here, so the screen's margin needs its
    # absolute term to cover products that round in the subnormal range
    rng = np.random.default_rng(49)
    for _ in range(20):
        scale = 2.0 ** float(rng.integers(-540, -515))
        _assert_same_as_explicit(scale * rng.normal(size=(200, 3)), scale * rng.normal(size=(8, 3)))
