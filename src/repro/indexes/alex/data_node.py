"""ALEX data node: a model-addressed gapped array (Ding et al. [2]).

Keys live in a *gapped array*: an array larger than the key count in
which empty slots are interleaved according to the linear model's
predictions.  Empty slots repeat the key of the next occupied slot to
their right, keeping the array non-decreasing so that the exponential
search around a model prediction works unmodified.

Cost accounting mirrors ALEX: a lookup starts at the predicted slot
and exponential-searches outward, so its step count grows with
``log2`` of the prediction error; the node tracks its expected search
steps, which Eq. 22's ``expected_number_of_searches`` consumes.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

import numpy as np

from ...core.linear_model import LinearModel, fit_linear
from ..base import WeakParent

__all__ = ["AlexDataNode", "InsertStatus"]

#: Bounds on the fill factor of a data node (ALEX defaults 0.6-0.8).
TARGET_DENSITY = 0.7
MAX_DENSITY = 0.8

#: Sentinel stored in trailing gaps.  Must compare greater than or
#: equal to every real key or the gapped array loses its sorted
#: invariant — so it is the maximum int64; a key equal to it is stored
#: in the slot before the trailing gaps, which repeat it.
TAIL_FILL = np.iinfo(np.int64).max


class InsertStatus(Enum):
    """Outcome of :meth:`AlexDataNode.insert`."""

    INSERTED = "inserted"
    UPDATED = "updated"
    FULL = "full"


class AlexDataNode:
    """A gapped-array leaf node."""

    parent = WeakParent()

    __slots__ = (
        "model",
        "slot_keys",
        "slot_values",
        "occupied",
        "level",
        "n_keys",
        "_parent",
        "parent_slot",
        "virtual_slots",
        "_expected_steps_cache",
    )

    def __init__(
        self,
        capacity: int,
        model: LinearModel,
        level: int,
    ):
        capacity = max(capacity, 1)
        self.model = model
        self.slot_keys = np.full(capacity, TAIL_FILL, dtype=np.int64)
        self.slot_values = np.zeros(capacity, dtype=np.int64)
        self.occupied = np.zeros(capacity, dtype=bool)
        self.level = level
        self.n_keys = 0
        self.parent = None  # AlexInnerNode | None
        self.parent_slot: int | None = None
        #: Gap slots contributed by CSV virtual points.
        self.virtual_slots = 0
        self._expected_steps_cache: float | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        level: int,
        density: float = TARGET_DENSITY,
        min_capacity: int = 2,
    ) -> "AlexDataNode":
        """Bulk-load with model-based placement at the target density."""
        n = int(keys.size)
        capacity = max(int(np.ceil(n / density)), n + 1, min_capacity)
        if n == 0:
            return cls(capacity, LinearModel(0.0, 0.0), level)
        model = fit_linear(keys).scaled(capacity / max(n, 1))
        return cls._place(keys, values, capacity, model, level)

    @classmethod
    def from_positions(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray,
        capacity: int,
        model: LinearModel,
        level: int,
    ) -> "AlexDataNode":
        """Lay keys out at explicit *positions* (CSV smoothed layout).

        Positions must be strictly increasing and fit the capacity;
        the remaining slots become gaps.  CSV uses the smoothed point
        set's ranks as positions, so the virtual points materialise as
        the gaps between real keys.
        """
        node = cls(capacity, model, level)
        node._write_layout(keys, values, positions.astype(np.int64))
        return node

    @classmethod
    def from_smoothed(
        cls, keys: np.ndarray, values: np.ndarray, m: int, model: LinearModel, level: int
    ) -> "AlexDataNode":
        """The merged node of a CSV rebuild: *keys* (never empty) laid
        out by *model*, fitted over *m* smoothed points (``m -
        keys.size`` of them virtual) and scaled to the node's capacity;
        the strictly-monotone sweep keeps the gapped array sorted."""
        # Size the merged node to whichever gap budget is larger: the
        # smoothed point set (virtual points = gaps) or ALEX's normal
        # density headroom.  Taking the max instead of stacking both
        # keeps the storage overhead an α-fraction (Fig. 8h) while a
        # near-full node would otherwise double on the first insert.
        capacity = max(m + 1, int(np.ceil(keys.size / TARGET_DENSITY)))
        node = cls._place(keys, values, capacity, model.scaled(capacity / m), level)
        node.virtual_slots = m - keys.size
        return node

    @classmethod
    def _place(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        capacity: int,
        model: LinearModel,
        level: int,
    ) -> "AlexDataNode":
        """ALEX model-based placement sweep: each key goes to
        ``max(predicted_slot, previous_slot + 1)``."""
        predicted = np.clip(
            np.round(model.predict_array(keys)).astype(np.int64), 0, capacity - 1
        )
        # Strict monotonicity, vectorised: the sweep's fixpoint is
        # pos_i = max_{j<=i}(predicted_j + (i - j)), i.e. a running
        # maximum of ``predicted - index`` added back onto the index.
        idx = np.arange(predicted.size, dtype=np.int64)
        positions = np.maximum.accumulate(predicted - idx) + idx
        last = int(positions[-1]) if positions.size else -1
        if last >= capacity:
            capacity = last + 1
        node = cls(capacity, model, level)
        node._write_layout(keys, values, positions)
        return node

    def _write_layout(self, keys: np.ndarray, values: np.ndarray, positions: np.ndarray) -> None:
        if keys.size == 0:
            return
        if positions.size != keys.size:
            raise ValueError("positions must parallel keys")
        if positions.size > 1 and np.any(np.diff(positions) <= 0):
            raise ValueError("positions must be strictly increasing")
        if int(positions[-1]) >= self.capacity or int(positions[0]) < 0:
            raise ValueError("positions exceed node capacity")
        self.slot_keys[positions] = keys
        self.slot_values[positions] = values
        self.occupied[positions] = True
        self.n_keys = int(keys.size)
        self._fill_gaps()
        self._expected_steps_cache = None

    def _fill_gaps(self) -> None:
        """Rewrite gap slots with the next occupied key to their right."""
        fill = np.where(self.occupied, self.slot_keys, TAIL_FILL)
        # backward cumulative minimum gives the next real key rightward
        self.slot_keys = np.minimum.accumulate(fill[::-1])[::-1]
        # restore exact keys at occupied slots (identical values anyway)
        occ = self.occupied
        self.slot_keys[occ] = fill[occ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return int(self.slot_keys.size)

    @property
    def density(self) -> float:
        return self.n_keys / self.capacity if self.capacity else 0.0

    def _locate(self, key: int) -> tuple[int, int]:
        """``(slot, search_steps)`` of the first slot with key >= *key*.

        Correctness comes from a binary search on the (sorted) slot
        array; the *step count* is the cost of the exponential search
        ALEX performs from the model's predicted slot.
        """
        predicted = self.model.predict_clamped(key, self.capacity)
        actual = int(np.searchsorted(self.slot_keys, key, side="left"))
        distance = abs(actual - predicted)
        steps = 1 + int(np.ceil(np.log2(distance + 2)))
        return actual, steps

    def lookup(self, key: int) -> tuple[bool, int | None, int]:
        """``(found, value, search_steps)`` for *key*."""
        key = int(key)
        slot, steps = self._locate(key)
        # Gap slots to the left of a real key repeat its key value; the
        # real (occupied) slot is the last of the equal run.
        while slot < self.capacity and int(self.slot_keys[slot]) == key:
            if self.occupied[slot]:
                return True, int(self.slot_values[slot]), steps
            slot += 1
            steps += 1
        return False, None, steps

    def lookup_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`lookup` over a query array.

        Returns ``(found, values, search_steps)`` parallel to *keys*.
        The gapped-array invariant (gap slots repeat the key of the
        next occupied slot to their right) guarantees that a present
        key's occupied slot is the *last* slot of its equal run, so the
        per-slot walk of the scalar path collapses to one
        ``side='right'`` search; the walk's step charges are recovered
        from the run length.  ``TAIL_FILL`` is the exception: the
        trailing gaps repeat it too, so its walk stops at the last
        occupied slot, or runs off the end when that holds a smaller key.
        """
        m = int(keys.size)
        cap = self.capacity
        predicted = np.clip(
            np.rint(self.model.predict_array(keys)).astype(np.int64), 0, cap - 1
        )
        first = np.searchsorted(self.slot_keys, keys, side="left")
        steps = 1 + np.ceil(np.log2(np.abs(first - predicted) + 2)).astype(np.int64)
        last = np.searchsorted(self.slot_keys, keys, side="right") - 1
        tail = keys == TAIL_FILL
        if tail.any():
            occupied = np.flatnonzero(self.occupied)
            stored = occupied.size > 0 and self.slot_keys[occupied[-1]] == TAIL_FILL
            last[tail] = occupied[-1] if stored else cap
        safe_last = np.clip(last, 0, cap - 1)
        found = (last >= first) & self.occupied[safe_last] & (self.slot_keys[safe_last] == keys)
        values = np.zeros(m, dtype=np.int64)
        values[found] = self.slot_values[safe_last[found]]
        # The scalar walk steps once per gap slot it crosses.
        steps += np.where(found | tail, last - first, 0)
        return found, values, steps

    def expected_search_steps(self) -> float:
        """Average exponential-search steps for this node's layout.

        Cached between structural changes; inserts invalidate the
        cache.  This is the ``expected_number_of_searches`` input to
        the Eq. 22 cost model.
        """
        if self._expected_steps_cache is None:
            self._expected_steps_cache = self._measure_expected_steps()
        return self._expected_steps_cache

    def _measure_expected_steps(self) -> float:
        """Expected exponential-search steps from the current layout."""
        if self.n_keys == 0:
            return 1.0
        occ_positions = np.nonzero(self.occupied)[0]
        keys = self.slot_keys[occ_positions]
        predicted = np.clip(
            np.round(self.model.predict_array(keys)).astype(np.int64),
            0,
            self.capacity - 1,
        )
        distance = np.abs(occ_positions - predicted)
        return float(np.mean(1 + np.ceil(np.log2(distance + 2))))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> InsertStatus:
        """Model-based insert with gap reuse and local shifting."""
        key = int(key)
        value = int(value)
        if self.n_keys + 1 > MAX_DENSITY * self.capacity:
            return InsertStatus.FULL
        slot, __ = self._locate(key)
        # Equal run: update if the real slot holds this key already.
        probe = slot
        while probe < self.capacity and int(self.slot_keys[probe]) == key:
            if self.occupied[probe]:
                self.slot_values[probe] = value
                return InsertStatus.UPDATED
            probe += 1
        insert_at = probe  # first slot whose (real or fill) key > key
        # The slot left of insert_at is occupied: a gap there would hold
        # the next real key to its right, which is key itself (found
        # above) or > key (then _locate would have stopped on it).  The
        # one exception, a TAIL_FILL key walking the trailing gaps, ends
        # with the left shift below taking the last of them.
        # Shift the occupied run into the nearest gap (either side).
        # Gap scans are vectorised: merged CSV nodes can have long
        # occupied runs and a per-slot Python loop would dominate the
        # insert cost.
        right_free = ~self.occupied[insert_at:]
        if right_free.any():
            gap_right = insert_at + int(np.argmax(right_free))
        else:
            gap_right = self.capacity
        left_free = ~self.occupied[:insert_at]
        if left_free.any():
            gap_left = insert_at - 1 - int(np.argmax(left_free[::-1]))
        else:
            gap_left = -1
        use_right = gap_right < self.capacity and (
            gap_left < 0 or gap_right - insert_at <= insert_at - gap_left
        )
        if use_right:
            if gap_right > insert_at:
                self.slot_keys[insert_at + 1 : gap_right + 1] = self.slot_keys[insert_at:gap_right]
                self.slot_values[insert_at + 1 : gap_right + 1] = self.slot_values[insert_at:gap_right]
                self.occupied[insert_at + 1 : gap_right + 1] = True
            target = insert_at
        elif gap_left >= 0:
            # Move the run left by one; the key lands just before insert_at.
            if gap_left < insert_at - 1:
                self.slot_keys[gap_left:insert_at - 1] = self.slot_keys[gap_left + 1 : insert_at]
                self.slot_values[gap_left:insert_at - 1] = self.slot_values[gap_left + 1 : insert_at]
                self.occupied[gap_left:insert_at - 1] = True
            target = insert_at - 1
        else:
            return InsertStatus.FULL
        self.slot_keys[target] = key
        self.slot_values[target] = value
        self.occupied[target] = True
        self.n_keys += 1
        self._expected_steps_cache = None
        return InsertStatus.INSERTED

    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[tuple[int, int]]:
        """Yield (key, value) pairs in ascending key order."""
        for slot in np.nonzero(self.occupied)[0]:
            yield int(self.slot_keys[slot]), int(self.slot_values[slot])

    def collect_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied keys and values as sorted parallel arrays."""
        occ = np.nonzero(self.occupied)[0]
        return self.slot_keys[occ].copy(), self.slot_values[occ].copy()
