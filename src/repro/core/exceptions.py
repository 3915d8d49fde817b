"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidKeysError(ReproError, ValueError):
    """Raised when a key array violates a precondition.

    Key arrays passed to smoothing and index construction must be
    one-dimensional, sorted in ascending order, and free of duplicates
    (LIPP and SALI do not support duplicate keys; see Section 6.1 of the
    paper).
    """


class SmoothingBudgetError(ReproError, ValueError):
    """Raised when a smoothing threshold or budget is out of range.

    The paper constrains the smoothing threshold ``alpha`` to (0, 1) so
    that the space overhead stays linear (Section 3).
    """


class IndexStateError(ReproError, RuntimeError):
    """Raised when an index is used before it is built, or rebuilt
    inconsistently (e.g. CSV rebuilding a node that no longer exists)."""


class StoreCorruptionError(IndexStateError):
    """Raised when persisted data does not match what wrote it: a run
    file against its manifest checksum, a manifest field, or a recorded
    CSV decision against the keys it was made for."""


class CalibrationError(ReproError, RuntimeError):
    """Raised when cost-model calibration cannot produce usable constants
    (e.g. an empty query sample)."""
