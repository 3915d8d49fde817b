"""The level-at-a-time LIPP build against the per-node build it replaced.

``_oracle_from_keys`` / ``_oracle_layout`` are the old
``LippNode.from_keys`` / ``LippNode._layout``, kept here verbatim as the
oracle (only the node constructor call changed: a node is now handed its
slot arrays): a breadth-first worklist that lays out one node per Python
call with ``fit_linear``.  ``LippNode.from_keys`` must return the same
tree **bit for bit** — model coefficients, the three slot arrays,
``level``, ``n_subtree_keys``, parent links, children keys in the same
order — and the per-key levels ``from_keys_leveled`` reports must be the
levels the tree stores the keys at.

The second half is the view an index build writes instead of nodes: it
must be the oracle tree's compiled view, plain and from CSV's record,
and the nodes made from it must be the oracle's nodes.

The third half is structural: properties every tree ``from_keys``
returns must have, whatever the keys.
"""

from __future__ import annotations

import functools
import struct
import sys
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.csv_algorithm import CsvConfig, RecordedRebuilds, apply_csv
from repro.core.linear_model import LinearModel, fit_linear
from repro.core.smoothing import smooth_keys
from repro.datasets import DATASETS, generate
from repro.indexes import INDEX_FAMILIES
from repro.indexes.adapters import adapter_for
from repro.indexes.lipp import node as node_module
from repro.indexes.lipp.flat import FlatLipp
from repro.indexes.lipp.index import LippIndex
from repro.indexes.lipp.node import (
    MIN_SLOTS,
    SLOT_CHILD,
    SLOT_DATA,
    SLOT_EMPTY,
    LippNode,
)

SLOT_FACTORS = [1.0, 1.5, 2.0]


# -- the oracle ------------------------------------------------------------
def _blank(m: int, model: LinearModel, level: int) -> LippNode:
    """The old ``LippNode(m, model, level)``: a node of *m* EMPTY slots."""
    return LippNode(
        model,
        level,
        np.zeros(m, dtype=np.uint8),
        np.zeros(m, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
        0,
    )


def _fallback_model(keys: np.ndarray, m: int) -> LinearModel:
    """Endpoint interpolation: first key → slot 0, last key → slot m-1."""
    span = float(int(keys[-1]) - int(keys[0]))
    slope = (m - 1) / span
    return LinearModel(slope, 0.0, pivot=int(keys[0]))


def _oracle_from_keys(keys, values, level, slot_factor=1.0, m=None, model=None) -> LippNode:
    root, pending = _oracle_layout(keys, values, level, slot_factor, m, model)
    frontier = deque(pending)
    while frontier:
        parent, slot, group_keys, group_values = frontier.popleft()
        child, sub_pending = _oracle_layout(
            group_keys, group_values, parent.level + 1, slot_factor, None, None
        )
        child.parent = parent
        child.parent_slot = slot
        parent.slot_type[slot] = SLOT_CHILD
        parent.children[slot] = child
        frontier.extend(sub_pending)
    return root


def _oracle_layout(keys, values, level, slot_factor, m, model) -> tuple[LippNode, list]:
    n = int(keys.size)
    if m is None:
        m = max(MIN_SLOTS, int(np.ceil(n * slot_factor)))
    if model is None and n == 2:
        k0 = int(keys[0])
        span = int(keys[1]) - k0
        node = _blank(m, LinearModel((m - 1) / span, 0.0, pivot=k0), level)
        node.n_subtree_keys = 2
        node.slot_type[0] = SLOT_DATA
        node.slot_keys[0] = keys[0]
        node.slot_values[0] = values[0]
        node.slot_type[m - 1] = SLOT_DATA
        node.slot_keys[m - 1] = keys[1]
        node.slot_values[m - 1] = values[1]
        return node, []
    if model is None:
        if n <= 1:
            model = LinearModel(0.0, 0.0)
        else:
            scaled = fit_linear(keys).scaled((m - 1) / max(n - 1, 1))
            model = scaled
    node = _blank(m, model, level)
    node.n_subtree_keys = n
    if n == 0:
        return node, []
    predicted = np.clip(
        np.round(model.predict_array(keys)).astype(np.int64), 0, m - 1
    )
    if n >= 2 and np.all(predicted == predicted[0]):
        node.model = _fallback_model(keys, m)
        predicted = np.clip(
            np.round(node.model.predict_array(keys)).astype(np.int64), 0, m - 1
        )
    boundaries = np.nonzero(np.diff(predicted))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [n]])
    single = (ends - starts) == 1
    if np.any(single):
        s_starts = starts[single]
        s_slots = predicted[s_starts]
        node.slot_type[s_slots] = SLOT_DATA
        node.slot_keys[s_slots] = keys[s_starts]
        node.slot_values[s_slots] = values[s_starts]
    multi = ~single
    pending = [
        (node, int(predicted[start]), keys[start:end], values[start:end])
        for start, end in zip(starts[multi].tolist(), ends[multi].tolist())
    ]
    return node, pending


# -- node-for-node equality ------------------------------------------------
def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _assert_same_tree(got: LippNode, want: LippNode) -> int:
    """Node-for-node, bit-for-bit; returns the number of nodes compared."""
    compared = 0
    stack = [(got, want)]
    while stack:
        a, b = stack.pop()
        compared += 1
        assert type(a.model) is type(b.model)
        assert a.model == b.model
        if isinstance(a.model, LinearModel):
            # Dataclass equality lets -0.0 == 0.0 through; bits do not.
            assert _bits(a.model.slope) == _bits(b.model.slope)
            assert _bits(a.model.intercept) == _bits(b.model.intercept)
            assert type(a.model.pivot) is type(b.model.pivot) is int
        for name in ("slot_type", "slot_keys", "slot_values"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype
            assert np.array_equal(x, y), name
        assert (a.level, a.n_subtree_keys, a.parent_slot) == (
            b.level,
            b.n_subtree_keys,
            b.parent_slot,
        )
        assert type(a.level) is type(a.n_subtree_keys) is int
        assert (a.virtual_slots, a.conflicts_since_build, a.access_count) == (0, 0, 0)
        assert list(a.children) == list(b.children)  # same slots, same order
        for slot, child in a.children.items():
            assert child.parent is a
            assert type(child.parent_slot) is int
            stack.append((child, b.children[slot]))
    return compared


def _stored_levels(root: LippNode, keys: np.ndarray) -> np.ndarray:
    """Level each of *keys* is stored at, by the scalar descent."""
    levels = np.empty(keys.size, dtype=np.int64)
    for i, key in enumerate(keys.tolist()):
        node = root
        while True:
            slot = node.slot_of(key)
            if int(node.slot_type[slot]) != SLOT_CHILD:
                break
            node = node.children[slot]
        assert int(node.slot_type[slot]) == SLOT_DATA and int(node.slot_keys[slot]) == key
        levels[i] = node.level
    return levels


def _assert_parity(keys, values, level=1, slot_factor=1.0, m=None, model=None) -> LippNode:
    want = _oracle_from_keys(keys, values, level, slot_factor, m, model)
    got, key_levels = LippNode.from_keys_leveled(keys, values, level, slot_factor, m, model)
    _assert_same_tree(got, want)
    # from_keys is the same build behind the lone-pair early-out.
    _assert_same_tree(LippNode.from_keys(keys, values, level, slot_factor, m, model), want)
    assert key_levels.dtype == np.int64
    assert np.array_equal(key_levels, _stored_levels(got, keys))
    return got


INT64 = np.iinfo(np.int64)


def _assert_both_walks_agree(root: LippNode, slot_factor, keys, values) -> None:
    """Over the built tree, the flat sweep and the scalar walk find
    every stored key at the same level, and agree on extreme query keys."""
    index = LippIndex(root, slot_factor)
    probes = np.asarray([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max])
    q = np.concatenate([keys, probes])
    batch = index.lookup_many(q)
    assert bool(batch.found[: keys.size].all())
    assert np.array_equal(batch.values[: keys.size], values)
    for j, key in enumerate(q.tolist()):
        scalar = index.lookup_stats(key)
        assert scalar.found == bool(batch.found[j])
        assert scalar.levels == int(batch.levels[j])
    # ``level`` of the root may not be 1 here; levels count from the root.
    stored = _stored_levels(root, keys) - root.level + 1
    assert np.array_equal(batch.levels[: keys.size], stored)


@pytest.mark.parametrize("slot_factor", SLOT_FACTORS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestDatasetParity:
    def test_plain_root(self, dataset, slot_factor):
        keys = generate(dataset, 6_000, 3)
        for shard in np.array_split(keys, 3):
            _assert_parity(shard, shard * 3 + 1, 1, slot_factor)

    def test_csv_root(self, dataset, slot_factor):
        """A CSV rebuild's root: ``m`` and ``model`` from a real smoothing."""
        keys = generate(dataset, 6_000, 3)[1_000:3_500]
        for alpha in (0.05, 0.3):
            smoothing = smooth_keys(keys, alpha=alpha)
            _assert_parity(
                keys, keys + 7, 2, slot_factor, int(smoothing.points.size), smoothing.model
            )

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tiny(self, dataset, slot_factor, n):
        keys = generate(dataset, 500, 3)[100 : 100 + n]
        _assert_parity(keys, keys * 2, 4, slot_factor)
        if n:  # smooth_keys needs a key
            model = smooth_keys(generate(dataset, 500, 3), alpha=0.2).model
            _assert_parity(keys, keys * 2, 2, slot_factor, 9, model)
        _assert_parity(keys, keys * 2, 2, slot_factor, 5, LinearModel(0.25, 1.0, 3))
        _assert_parity(keys, keys * 2, 2, slot_factor, 6)  # caller's m, fitted model


class TestEdgeParity:
    def test_every_segment_length_matches_fit_linear(self):
        """The stacked row-wise fit is ``fit_linear`` at every length —
        the bit-parity trap is the OLS dot product's summation order."""
        rng = np.random.default_rng(5)
        for length in [*range(3, 130), 255, 256, 257, 511, 1000, 4097]:
            rows = int(rng.integers(1, 6))
            gaps = rng.integers(1, 1 << int(rng.integers(2, 40)), (rows, length))
            lk = np.cumsum(gaps.ravel())
            starts = np.arange(rows) * length
            counts = np.full(rows, length)
            slots = np.maximum(2, np.ceil(counts * 1.5).astype(np.int64))
            slope, intercept = node_module._fit_segments(lk, starts, counts, slots)
            for i in range(rows):
                want = fit_linear(lk[starts[i] : starts[i] + length]).scaled(
                    (int(slots[i]) - 1) / (length - 1)
                )
                assert _bits(want.slope) == _bits(float(slope[i])), length
                assert _bits(want.intercept) == _bits(float(intercept[i])), length

    @pytest.mark.parametrize("slot_factor", SLOT_FACTORS)
    def test_forced_degenerate_fallback(self, slot_factor):
        """Every fitted model dumps its keys in one slot: each node must
        take the endpoint-interpolation fallback, as the oracle does."""
        keys = generate("osm", 800, 3)

        fit_segments = node_module._fit_segments

        def flat_fit(lk, starts, counts, slots):
            slope, intercept = fit_segments(lk, starts, counts, slots)
            slope[counts != 2] = intercept[counts != 2] = 0.0  # pairs are not fitted
            return slope, intercept

        def flat_fit_linear(segment):
            return LinearModel(0.0, 0.0, int(segment[0]))

        with mock.patch.object(node_module, "_fit_segments", flat_fit):
            got = LippNode.from_keys(keys, keys, 1, slot_factor)
        with mock.patch(f"{__name__}.fit_linear", flat_fit_linear):
            want = _oracle_from_keys(keys, keys, 1, slot_factor)
        assert _assert_same_tree(got, want) > 1
        assert got.model == _fallback_model(keys, got.m)

    def test_degenerate_caller_model(self):
        keys = generate("genome", 300, 3)
        for model in (LinearModel(0.0, 4.0), LinearModel(1e-30, 0.0, int(keys[0]))):
            got = _assert_parity(keys, keys, 3, 1.0, 40, model)
            assert got.model == _fallback_model(keys, 40)

    def test_spans_beyond_float_precision(self):
        """Conflict pairs whose span is not exact in float64 (the pair
        slope divides Python ints; a float64 span is one ulp off)."""
        rng = np.random.default_rng(11)
        wide = np.unique(rng.integers(-(1 << 61), 1 << 61, 600))
        near = wide[::2] + (1 << 53) + rng.integers(1, 99, wide[::2].size)
        for keys in (wide, np.unique(np.concatenate([wide[::2], near]))):
            root = _assert_parity(keys, keys // 3, 1, 1.0)
            assert any(
                node.n_subtree_keys == 2
                and int(node.slot_keys[-1]) - int(node.slot_keys[0]) >= 1 << 53
                for node in root.walk()
            )

    @pytest.mark.parametrize(
        "lo, hi", [(0, (1 << 53) + 1), (-(1 << 62), 1 << 62), (-(1 << 63), (1 << 63) - 1)]
    )
    def test_pair_span_up_to_the_whole_key_space(self, lo, hi):
        """A span that overflows int64 is still divided exactly."""
        pair = np.asarray([lo, hi], dtype=np.int64)
        _assert_parity(pair, pair, 2, 1.5)
        # The same pair under a constant root model, which sends both
        # keys to one slot: the endpoint fallback (whose span overflows
        # too) separates them, exactly, in the build and in both walks.
        constant = LinearModel(0.0, 0.0)
        got = _assert_parity(pair, pair, 1, 1.5, 3, constant)
        _assert_both_walks_agree(got, 1.5, pair, pair)

    @pytest.mark.parametrize("slot_factor", SLOT_FACTORS)
    def test_extreme_span_key_set(self, slot_factor):
        """Keys from ``int64.min + 5`` to ``int64.max - 5``: ``key -
        pivot`` leaves int64 at most nodes.  The level kernel, the
        per-node oracle (through ``fit_linear`` / ``predict_array``),
        the scalar walk and the flat sweep must all take the exact
        difference — the kernel used to wrap, and the scalar walk then
        missed 995 of these 2,002 stored keys."""
        rng = np.random.default_rng(3)
        lo, hi = int(INT64.min) + 5, int(INT64.max) - 5
        keys = np.unique(
            np.concatenate([rng.integers(lo, hi, 2000, dtype=np.int64), [lo, hi]])
        )
        values = keys // 4
        root = _assert_parity(keys, values, 1, slot_factor)
        _assert_both_walks_agree(root, slot_factor, keys, values)
        # A CSV-style root: caller-chosen size and model over the same span.
        m = int(keys.size * 1.3)
        model = fit_linear(keys).scaled((m - 1) / (keys.size - 1))
        root = _assert_parity(keys, values, 2, slot_factor, m, model)
        _assert_both_walks_agree(root, slot_factor, keys, values)

    def test_deep_conflict_chain_keeps_the_stack_flat(self):
        """Geometrically growing gaps: every level peels off the largest
        keys, as deep as int64 allows.  The build must not recurse per
        level: its deepest Python frame is as deep on a 5-level chain
        as on a 12-level one."""

        def build(n_keys: int) -> tuple[int, int]:
            keys = np.cumsum(1 << np.arange(n_keys, dtype=np.int64))
            depth = deepest = 0

            def profiler(frame, event, arg):
                nonlocal depth, deepest
                if event == "call":
                    depth += 1
                    deepest = max(deepest, depth)
                elif event == "return":
                    depth -= 1

            sys.setprofile(profiler)
            try:
                got = LippNode.from_keys(keys, keys, 1)
            finally:
                sys.setprofile(None)
            _assert_same_tree(got, _oracle_from_keys(keys, keys, 1))
            return max(node.level for node in got.walk()), deepest

        shallow_height, shallow_frames = build(20)
        deep_height, deep_frames = build(62)
        assert deep_height >= shallow_height + 5
        assert deep_frames == shallow_frames

    def test_one_kernel_entry_per_level(self):
        """A later edit cannot quietly reintroduce a per-node loop."""
        keys = generate("osm", 10_000, 3)
        with mock.patch.object(
            node_module, "_layout_level", wraps=node_module._layout_level
        ) as kernel:
            index = LippIndex.build(keys)
        assert index.node_count() > 1_000
        assert 1 < kernel.call_count <= index.height()


# -- the view an index build writes ------------------------------------------
VIEW_ARRAYS = (
    "node_level", "node_a", "node_b", "node_c", "node_pivot", "node_last",
    "node_subtree_keys", "node_virtual_slots", "slot_start",
    "slot_type", "slot_keys", "slot_values", "slot_child",
)


def _assert_same_view(got: FlatLipp, want: FlatLipp) -> None:
    """Every array of the two views, bit for bit (floats as int64)."""
    for name in VIEW_ARRAYS:
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype, name
        if x.dtype == np.float64:  # -0.0 == 0.0 as floats, not as bits
            x, y = x.view(np.int64), y.view(np.int64)
        assert np.array_equal(x, y), name
    assert (got.pivot_min, got.pivot_max) == (want.pivot_min, want.pivot_max)
    assert got.leaves == want.leaves == []


@functools.cache
def _analogue(dataset: str) -> tuple[np.ndarray, np.ndarray]:
    keys = generate(dataset, 4_000, 5)
    return keys, keys * 3 + 1


@functools.cache
def _decisions(dataset: str, alpha: float) -> np.ndarray:
    """CSV's record on a plain build of the analogue."""
    keys, values = _analogue(dataset)
    decisions = apply_csv(adapter_for(LippIndex.build(keys, values)), CsvConfig(alpha=alpha)).decisions()
    assert decisions.shape[0] > 0
    return decisions


def _oracle(dataset: str, alpha: float | None) -> LippNode:
    """The per-node oracle's tree of the analogue; with *alpha*, every
    recorded rebuild redone on it, shallow first, by the oracle's own
    build of the row's ``m`` slots and model."""
    keys, values = _analogue(dataset)
    root = _oracle_from_keys(keys, values, 1)
    if alpha is None:
        return root
    decisions = _decisions(dataset, alpha)
    for row in decisions[np.argsort(decisions[:, 1], kind="stable")]:
        first, level, n, m, __, __, pivot = row.tolist()
        slope, intercept = row[4:6].view(np.float64).tolist()
        node = root
        while node.level < level:
            node = node.children[node.slot_of(first)]
        below_keys, below_values = node.collect_arrays()
        assert below_keys.size == n and int(below_keys[0]) == first
        rebuilt = _oracle_from_keys(
            below_keys, below_values, level, 1.0, m, LinearModel(slope, intercept, pivot)
        )
        rebuilt.virtual_slots = m - n
        rebuilt.parent, rebuilt.parent_slot = node.parent, node.parent_slot
        node.parent.children[node.parent_slot] = rebuilt
    return root


def _built(family: str, dataset: str, alpha: float | None) -> LippIndex:
    keys, values = _analogue(dataset)
    record = None if alpha is None else RecordedRebuilds(_decisions(dataset, alpha), keys)
    return INDEX_FAMILIES[family].build(keys, values, record=record)


def _assert_same_tree_counts(got: list, want: list) -> None:
    """What the compiled arrays do not hold: the per-node counters."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.conflicts_since_build, a.access_count, a.virtual_slots, a.n_subtree_keys) == (
            b.conflicts_since_build, b.access_count, b.virtual_slots, b.n_subtree_keys
        )
        assert list(a.children) == list(b.children)


@pytest.mark.parametrize("alpha", [None, 0.05, 0.1], ids=["plain", "recorded-0.05", "recorded-0.1"])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("family", ["lipp", "sali"])
class TestBuiltView:
    def test_the_build_writes_the_oracles_compiled_view(self, family, dataset, alpha):
        index = _built(family, dataset, alpha)
        assert index._root is None and index._flat.nodes == []  # no node made
        _assert_same_view(index._flat, FlatLipp.compile(_oracle(dataset, alpha)))

    def test_materialize_then_compile_round_trips(self, family, dataset, alpha):
        index = _built(family, dataset, alpha)
        view = index._flat
        root = index.root
        assert index.root is root and view.nodes[0] is root
        assert len(view.nodes) == view.n_nodes
        bounds = view.slot_start.tolist()
        for i, node in enumerate(view.nodes):
            for name in ("slot_type", "slot_keys", "slot_values"):
                assert np.shares_memory(getattr(node, name), getattr(view, name)[bounds[i] : bounds[i + 1]])
        _assert_same_view(FlatLipp.compile(root), view)

    def test_conflict_inserts_after_materializing_match_the_oracle(self, family, dataset, alpha):
        index = _built(family, dataset, alpha)
        oracle = type(index)(_oracle(dataset, alpha), index.slot_factor)
        keys, __ = _analogue(dataset)
        gaps = np.flatnonzero(np.diff(keys) > 1)
        fresh = keys[np.random.default_rng(7).choice(gaps, 400, replace=False)] + 1
        n_built = index._flat.n_nodes
        for key in fresh.tolist():
            index.insert(key, -key)
            oracle.insert(key, -key)
        assert index._flat_view().n_nodes > n_built  # conflict children were made
        _assert_same_view(index._flat_view(), oracle._flat_view())
        _assert_same_tree_counts(index._flat.nodes, oracle._flat.nodes)
        batch = index.lookup_many(np.concatenate([keys, fresh]))
        assert bool(batch.found.all())
        assert np.array_equal(batch.values[keys.size :], -fresh)


# -- structural properties of anything from_keys returns ---------------------
key_lists = st.lists(
    st.integers(min_value=-(1 << 50), max_value=1 << 50), min_size=0, max_size=300
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=key_lists, slot_factor=st.sampled_from(SLOT_FACTORS), level=st.integers(1, 4))
def test_structure_of_a_built_tree(raw, slot_factor, level):
    keys = np.unique(np.asarray(raw, dtype=np.int64))
    values = keys * 5 - 1
    root, key_levels = LippNode.from_keys_leveled(keys, values, level, slot_factor)
    # Every key is found, at the level both reports name.
    assert np.array_equal(key_levels, _stored_levels(root, keys))
    got_keys, got_values, got_levels = root.collect_leveled()
    assert np.array_equal(got_keys, keys)
    assert np.array_equal(got_values, values)
    assert np.array_equal(got_levels, key_levels)
    assert root.parent is None and root.level == level
    for node in root.walk():
        kinds = node.slot_type
        # CHILD slots <=> children keys.
        assert sorted(node.children) == np.flatnonzero(kinds == SLOT_CHILD).tolist()
        assert node.m == max(MIN_SLOTS, int(np.ceil(node.n_subtree_keys * slot_factor)))
        # Subtree key counts add up along every parent link.
        stored = int(np.count_nonzero(kinds == SLOT_DATA))
        assert node.n_subtree_keys == stored + sum(
            child.n_subtree_keys for child in node.children.values()
        )
        for slot, child in node.children.items():
            assert child.parent is node and child.parent_slot == slot
            assert child.level == node.level + 1
            assert 2 <= child.n_subtree_keys < node.n_subtree_keys
        # Unused slots hold zeros, as a freshly allocated node's do.
        assert not node.slot_keys[kinds != SLOT_DATA].any()
        assert not node.slot_values[kinds != SLOT_DATA].any()
        for array in (node.slot_type, node.slot_keys, node.slot_values):
            assert array.flags.writeable and array.size == node.m


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=key_lists.filter(lambda xs: len(set(xs)) >= 2))
def test_in_place_write_before_compile_survives_it(raw):
    """Node slot arrays are live, writable views before *and* after
    ``compile``: a key written into an EMPTY slot of a freshly built
    tree is found through the flat view compiled afterwards."""
    keys = np.unique(np.asarray(raw, dtype=np.int64))
    index = LippIndex.build(keys, keys, slot_factor=2.0)
    written: dict[int, int] = {}
    for node in index.root.walk():
        if len(written) == 4:
            break
        for slot in np.flatnonzero(node.slot_type == SLOT_EMPTY).tolist():
            # A key the node's model sends to this slot, if the path
            # from the root really ends there.
            probe = node.model.pivot + round((slot - node.model.intercept) / node.model.slope)
            if abs(probe) < 1 << 62 and index._descend(probe)[:2] == (node, slot):
                node.slot_type[slot] = SLOT_DATA
                node.slot_keys[slot] = probe
                node.slot_values[slot] = -probe
                written[probe] = -probe
                break
    assume(written)
    index._flat_view()
    probes = np.asarray(sorted(written), dtype=np.int64)
    batch = index.lookup_many(np.concatenate([keys, probes]))
    assert batch.found.all()
    assert np.array_equal(batch.values[: keys.size], keys)
    assert batch.values[keys.size :].tolist() == [written[k] for k in probes.tolist()]
