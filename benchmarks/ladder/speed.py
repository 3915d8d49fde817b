"""Machine-speed probe: report timings at a reference machine speed.

The reference box is shared.  Identical work runs up to a quarter
slower from one half-minute to the next (one ``IndexService.build``:
2.5 s, then 3.7 s), everything in a process slows together, and such
a phase outlasts a run — so ten runs of a raw timing spread by
0.15-0.25 of their median in a busy hour, however many passes each
one takes.

So every timed section is bracketed by a fixed probe — the classic
index baseline, a binary search (``np.searchsorted``) of 100 000 keys
in a 500 000-key sorted array, plus a Python ``dict`` fill, ≈50 ms —
and its duration is divided by ``probe time ÷ REFERENCE_S``.  The
metrics are thus "seconds at reference machine speed"; the raw
readings are printed beside them as ``raw_*`` extras.  A change to
the program moves both alike, a slow half-minute moves only the raw
one.  Over five 10-seed sweeps the median spread of an in-process
timing went from 0.14 raw to 0.08 scaled; an HTTP timing (its server
runs on another core than the probe) from 0.13 to 0.11, the worst
cell from 0.24 to 0.22 — no help in a quiet hour there, a cap on a
busy one.  This is the ROADMAP's "gate machine-independent ratios,
not absolute floors", applied inside each run.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Median probe time on the 2-core reference box.  It only fixes the
#: scale of the reported numbers (scaled ≈ raw on that box).
REFERENCE_S = 0.050

_SORTED_KEYS = 500_000
_QUERIES = 100_000
_DICT_ITEMS = 250_000


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(20250928)
        draw = rng.integers(0, 1 << 40, _SORTED_KEYS + _QUERIES)
        self._sorted = np.sort(draw[:_SORTED_KEYS])
        self._queries = draw[_SORTED_KEYS:]

    def sample(self) -> float:
        """Seconds one probe takes right now.

        Run twice, the faster counts: straight after a heavy section the
        probe's own arrays are out of cache and its first run reads up
        to twice as long, which says nothing about the machine.
        """
        return min(self._once(), self._once())

    def _once(self) -> float:
        started = time.perf_counter()
        np.searchsorted(self._sorted, self._queries)
        filled: dict[int, int] = {}
        for i in range(_DICT_ITEMS):
            filled[i] = i * 3
        return time.perf_counter() - started


@dataclass
class Section:
    """One timed block: its raw duration and how much slower than the
    reference the machine was around it (1.0 = reference speed)."""

    raw_s: float = 0.0
    slowdown: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.raw_s / self.slowdown


class Pace:
    """Times the sections of one run, each bracketed by probe samples.

    A sample is taken when a section ends and doubles as the opening
    sample of the next, so back-to-back sections cost one probe each
    and no probe ever runs inside a timed block.
    """

    def __init__(self) -> None:
        self._probe = Probe()
        self._last = self._probe.sample()
        self.sections: list[Section] = []

    @contextlib.contextmanager
    def section(self) -> Iterator[Section]:
        section = Section()
        started = time.perf_counter()
        try:
            yield section
        finally:
            section.raw_s = time.perf_counter() - started
            sample = self._probe.sample()
            section.slowdown = statistics.fmean((self._last, sample)) / REFERENCE_S
            self._last = sample
            self.sections.append(section)

    def typical_slowdown(self) -> float:
        return statistics.median(s.slowdown for s in self.sections)
