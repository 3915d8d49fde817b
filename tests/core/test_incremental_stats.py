"""Parity tests for the incremental SegmentStats commit path.

The incremental commit must be indistinguishable from throwing the
statistics away and rebuilding a fresh :class:`SegmentStats` over the
merged point set — not approximately, but *identically*: the moments
are maintained as exact integers, so the derived floats (and therefore
every candidate loss, every greedy selection, every trace entry) match
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import InvalidKeysError
from repro.core.segment_stats import OpenGaps, SegmentStats, sum_of_rank_squares, sum_of_ranks
from repro.core.smoothing import _best_candidate, smooth_keys


def _free_values(points: np.ndarray, rng: np.random.Generator, count: int) -> list[int]:
    """Sample up to *count* committable values from the open gaps."""
    taken = set(points.tolist())
    out: list[int] = []
    lo, hi = int(points[0]), int(points[-1])
    for value in rng.integers(lo + 1, hi, size=count * 8).tolist():
        if value not in taken:
            taken.add(value)
            out.append(value)
            if len(out) == count:
                break
    return out


def _assert_identical(incremental: SegmentStats, rebuilt: SegmentStats) -> None:
    assert incremental.n == rebuilt.n
    assert np.array_equal(incremental.points, rebuilt.points)
    assert incremental.centered_sums() == rebuilt.centered_sums()
    assert incremental.base_loss() == rebuilt.base_loss()
    ranks = np.arange(incremental.n + 1, dtype=np.int64)
    assert np.array_equal(
        incremental.suffix_key_sums(ranks), rebuilt.suffix_key_sums(ranks)
    )
    # The open-gap table the commits kept == the one a rebuild derives.
    assert incremental.n_gaps == rebuilt.n_gaps
    for name, kept, derived in zip(
        OpenGaps._fields, incremental.open_gaps(), rebuilt.open_gaps()
    ):
        assert kept.dtype == derived.dtype, name
        assert np.array_equal(kept, derived), name


class TestCommitMatchesRebuild:
    @pytest.mark.parametrize("fixture_name", ["toy_keys", "small_keys", "clustered_keys"])
    def test_commit_sequence_bitwise_identical(self, fixture_name, request, rng):
        keys = request.getfixturevalue(fixture_name)
        stats = SegmentStats(keys)
        for value in _free_values(keys, rng, 40):
            stats.commit(value)
            rebuilt = SegmentStats(stats.points.copy())
            _assert_identical(stats, rebuilt)

    def test_candidate_losses_bitwise_identical(self, small_keys, rng):
        stats = SegmentStats(small_keys)
        for value in _free_values(small_keys, rng, 25):
            stats.commit(value)
        rebuilt = SegmentStats(stats.points.copy())
        points = stats.points
        lows = points[:-1] + 1
        highs = points[1:] - 1
        open_gaps = np.nonzero(highs >= lows)[0]
        values = lows[open_gaps]
        ranks = open_gaps + 1
        assert np.array_equal(
            stats.evaluate_many(values, ranks), rebuilt.evaluate_many(values, ranks)
        )

    def test_huge_magnitude_keys_fall_back_consistently(self):
        """Spans too wide for exact int64 prefixes degrade to the float
        path — which recomputes per commit and stays rebuild-identical."""
        keys = np.array([0, 2**61, 2**62, 2**62 + 10_000], dtype=np.int64)
        stats = SegmentStats(keys)
        stats.commit(12345)
        stats.commit(2**61 + 999)
        rebuilt = SegmentStats(stats.points.copy())
        _assert_identical(stats, rebuilt)

    def test_gap_table_splits_like_a_rebuild(self):
        """A commit at a gap's low, at its high, inside it, and one that
        closes a width-1 gap: each leaves the table a rebuild derives."""
        keys = np.array([0, 10, 12, 20, 30], dtype=np.int64)
        stats = SegmentStats(keys)
        assert stats.open_gaps().ends.tolist() == [[1, 11, 13, 21], [9, 11, 19, 29]]
        for value, n_gaps in ((1, 4), (19, 4), (25, 5), (11, 4)):
            stats.commit(value)
            assert stats.n_gaps == n_gaps
            _assert_identical(stats, SegmentStats(stats.points.copy()))
        gaps = stats.open_gaps()
        assert gaps.ends.tolist() == [[2, 13, 21, 26], [9, 18, 24, 29]]
        assert gaps.ranks.tolist() == [2, 5, 7, 8]

    def test_gap_table_grows_past_its_capacity(self):
        """Every commit inside a wide gap adds one gap; the table's
        buffers double as the point buffer's do."""
        stats = SegmentStats(np.array([0, 1_000], dtype=np.int64))
        assert stats.n_gaps == 1
        for value in range(10, 1_000, 10):
            stats.commit(value)
            _assert_identical(stats, SegmentStats(stats.points.copy()))
        assert stats.n_gaps == 100

    def test_buffer_growth_preserves_points(self, toy_keys, rng):
        stats = SegmentStats(toy_keys)
        committed = _free_values(toy_keys, rng, 12)
        for value in committed:
            stats.commit(value)
        expected = sorted(toy_keys.tolist() + committed)
        assert stats.points.tolist() == expected

    def test_commit_rejects_duplicates_after_growth(self, toy_keys, rng):
        stats = SegmentStats(toy_keys)
        value = _free_values(toy_keys, rng, 1)[0]
        stats.commit(value)
        with pytest.raises(InvalidKeysError):
            stats.commit(value)


class _SeedStats(SegmentStats):
    """SegmentStats with the seed's commit: ``np.insert`` + a full
    recompute, no incremental statistics."""

    def commit(self, value: int) -> int:  # type: ignore[override]
        value = int(value)
        rank = self.insertion_rank(value)
        merged = np.insert(self.points, rank, value)
        self.__init__(merged)
        return rank


def _seed_best_candidate(stats: SegmentStats) -> tuple[int, float] | None:
    """The seed kernel's greedy step, written independently of
    ``_best_candidate``: one Python-level suffix sum per open gap, the
    closed-form optimum per gap, and every candidate scored through
    ``evaluate_many`` in one concatenated array."""
    points = stats.points
    lows = points[:-1] + 1
    highs = points[1:] - 1
    gap_mask = highs >= lows
    if not np.any(gap_mask):
        return None
    lows = lows[gap_mask]
    highs = highs[gap_mask]
    ranks = np.nonzero(gap_mask)[0] + 1
    big_n = stats.n + 1
    ybar = sum_of_ranks(big_n) / big_n
    sk, skk, sky = stats.centered_sums()
    suffix = np.array([stats.suffix_key_sum(int(r)) for r in ranks])
    c0 = (sky + suffix) - sk * ybar
    c1 = ranks - ybar
    v0 = skk - sk * sk / big_n
    v1 = -2.0 * sk / big_n
    v2 = 1.0 - 1.0 / big_n
    denom = c1 * v1 - 2.0 * c0 * v2
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(denom != 0.0, (c0 * v1 - 2.0 * c1 * v0) / denom, np.nan)
    star = t_star + stats.reference
    cand_values = [lows, highs]
    cand_ranks = [ranks, ranks]
    interior = np.isfinite(star) & (star > lows) & (star < highs)
    if np.any(interior):
        floor_v = np.floor(star[interior]).astype(np.int64)
        lo_i = lows[interior]
        hi_i = highs[interior]
        cand_values.append(np.clip(floor_v, lo_i, hi_i))
        cand_ranks.append(ranks[interior])
        cand_values.append(np.clip(floor_v + 1, lo_i, hi_i))
        cand_ranks.append(ranks[interior])
    values = np.concatenate(cand_values)
    losses = stats.evaluate_many(values, np.concatenate(cand_ranks))
    best = int(np.argmin(losses))
    return int(values[best]), float(losses[best])


def _seed_smooth(keys: np.ndarray, budget: int) -> list[int]:
    """The seed greedy loop (virtual points only)."""
    stats = _SeedStats(keys)
    previous = stats.base_loss()
    virtual: list[int] = []
    while len(virtual) < budget:
        found = _seed_best_candidate(stats)
        if found is None or found[1] >= previous:
            break
        value, loss = found
        stats.commit(value)
        virtual.append(value)
        previous = loss
    return virtual


class TestGreedyMatchesRebuildDrivenGreedy:
    def test_smooth_keys_identical_to_rebuild_per_step(self, small_keys):
        """Algorithm 1 run on incremental stats == a reference run that
        rebuilds SegmentStats from scratch after every commit."""
        result = smooth_keys(small_keys, budget=20)

        points = small_keys.copy()
        virtual: list[int] = []
        trace = [SegmentStats(points).base_loss()]
        previous = trace[0]
        while len(virtual) < 20:
            fresh = SegmentStats(points)
            found = _best_candidate(fresh)
            if found is None or found[1] >= previous:
                break
            value, loss = found
            points = np.insert(points, int(np.searchsorted(points, value)), value)
            virtual.append(value)
            previous = loss
            trace.append(loss)

        assert result.virtual_points == virtual
        assert result.loss_trace == trace

    def test_degrade_to_the_float_path_mid_run(self):
        """Keys whose ``(n+1)·span`` sits just under 2^62 start on the
        exact path and leave it on the third commit; every step before
        and after picks what a scan over a fresh rebuild picks, and the
        run equals a rebuild-driven one."""
        n = 100
        span = 2**62 // (n + 3) - 1
        keys = np.array([i**3 * span // (n - 1) ** 3 for i in range(n)], dtype=np.int64)
        assert np.all(np.diff(keys) > 0) and keys[-1] - keys[0] == span

        stats = SegmentStats(keys)
        exact = [stats._exact]
        for __ in range(8):
            found = _best_candidate(stats)
            assert found == _best_candidate(SegmentStats(stats.points.copy()))
            stats.commit(found[0])
            exact.append(stats._exact)
            _assert_identical(stats, SegmentStats(stats.points.copy()))
        assert exact == [True] * 3 + [False] * 6

        result = smooth_keys(keys, budget=8)
        points = keys.copy()
        trace = [SegmentStats(points).base_loss()]
        virtual: list[int] = []
        while len(virtual) < 8:
            value, loss = _best_candidate(SegmentStats(points))
            assert loss < trace[-1]
            points = np.insert(points, int(np.searchsorted(points, value)), value)
            virtual.append(value)
            trace.append(loss)
        assert result.virtual_points == virtual
        assert result.loss_trace == trace

    def test_smooth_keys_identical_to_seed_kernel(self):
        """Algorithm 1 == the seed kernel's per-gap scoring with a full
        recompute per commit, on uniform keys (n = 2000, alpha = 0.2:
        the greedy loop stops on its own after ~200 points)."""
        rng = np.random.default_rng(0)
        keys = np.unique(rng.integers(0, 2_000_000, 2_000))
        budget = keys.size // 5
        virtual = smooth_keys(keys, budget=budget).virtual_points
        assert len(virtual) > 100
        assert virtual == _seed_smooth(keys, budget)


def _four_block_best_candidate(stats: SegmentStats) -> tuple[int, float] | None:
    """The greedy step as it was before the scan was fused: the four
    candidate blocks (lows, highs, interior floors, interior ceils)
    scored one after another, first-occurrence argmin inside each and
    a strict ``<`` between them."""
    points = stats.points
    lows = points[:-1] + 1
    highs = points[1:] - 1
    gap_mask = highs >= lows
    if not np.any(gap_mask):
        return None
    lows = lows[gap_mask]
    highs = highs[gap_mask]
    ranks = np.nonzero(gap_mask)[0] + 1
    big_n = stats.n + 1
    sy = sum_of_ranks(big_n)
    syy = sum_of_rank_squares(big_n)
    ybar = sy / big_n
    sk, skk, sky = stats.centered_sums()
    c0 = (sky + stats.suffix_key_sums(ranks)) - sk * ybar
    c1 = ranks - ybar
    v0 = skk - sk * sk / big_n
    v1 = -2.0 * sk / big_n
    v2 = 1.0 - 1.0 / big_n
    syyc = syy - sy * sy / big_n
    ref = np.int64(stats.reference)
    blocks = [(lows, c0, c1), (highs, c0, c1)]
    denom = c1 * v1 - 2.0 * c0 * v2
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(denom != 0.0, (c0 * v1 - 2.0 * c1 * v0) / denom, np.nan)
    star = t_star + stats.reference
    interior = np.isfinite(star) & (star > lows) & (star < highs)
    if np.any(interior):
        idx = np.nonzero(interior)[0]
        floor_v = np.clip(np.floor(star[idx]).astype(np.int64), lows[idx], highs[idx])
        blocks.append((floor_v, c0[idx], c1[idx]))
        blocks.append((np.clip(floor_v + 1, lows[idx], highs[idx]), c0[idx], c1[idx]))
    best: tuple[int, float] | None = None
    for values, cc0, cc1 in blocks:
        t = (values - ref).astype(np.float64)
        cov = cc0 + cc1 * t
        var = v0 + v1 * t + v2 * t * t
        with np.errstate(divide="ignore", invalid="ignore"):
            losses = np.maximum(syyc - np.where(var > 0.0, cov * cov / var, 0.0), 0.0)
        pick = int(np.argmin(losses))
        if best is None or float(losses[pick]) < best[1]:
            best = int(values[pick]), float(losses[pick])
    return best


def _tie_prone_key_sets() -> dict[str, np.ndarray]:
    """Key sets whose candidates tie on the loss: equal-width gaps make
    mirrored candidates score alike, width-2 gaps make a gap's low and
    high the same value."""
    return {
        "equal_gaps": np.arange(0, 4_000, 10, dtype=np.int64),
        "width_two_gaps": np.arange(0, 600, 2, dtype=np.int64),
        "mirrored_clusters": np.unique(
            np.concatenate([c + np.arange(0, 300, 3) for c in (0, 10_000, 20_000)])
        ),
    }


class TestFusedScanMatchesFourBlockScan:
    @pytest.mark.parametrize("name", sorted(_tie_prone_key_sets()))
    def test_same_pick_at_every_step(self, name):
        stats = SegmentStats(_tie_prone_key_sets()[name])
        tied_steps = 0
        for __ in range(60):
            found = _best_candidate(stats)
            assert found == _four_block_best_candidate(stats)
            if found is None:
                break
            # The pick is the first of several candidates with its loss?
            points = stats.points
            lows, highs = points[:-1] + 1, points[1:] - 1
            gaps = np.nonzero(highs >= lows)[0]
            ends = np.concatenate([lows[gaps], highs[gaps]])
            losses = stats.evaluate_many(ends, np.concatenate([gaps, gaps]) + 1)
            tied_steps += int(np.count_nonzero(losses == losses.min()) > 1)
            stats.commit(found[0])
        assert tied_steps > 0, "key set was meant to produce loss ties"
