"""Query and insertion workload generators (Section 6.1).

The paper evaluates two workloads: read-only (build on the full key
set, optimise, query) and read-write (build on a random half, optimise
once, then insert the other half in batches of ``0.1 n`` with queries
after each batch).  Queries focus on the *promoted* keys — the data
CSV moved to upper levels — because that is where the method acts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import InvalidKeysError

__all__ = ["ReadWriteSplit", "sample_queries", "split_read_write"]


def sample_queries(
    keys: np.ndarray,
    n_queries: int,
    rng: np.random.Generator,
    replace: bool = True,
) -> np.ndarray:
    """Uniformly sample query keys from *keys*."""
    keys = np.asarray(keys)
    if keys.size == 0:
        raise InvalidKeysError("cannot sample queries from an empty key set")
    if not replace and n_queries > keys.size:
        n_queries = int(keys.size)
    return rng.choice(keys, size=n_queries, replace=replace)


@dataclass(frozen=True)
class ReadWriteSplit:
    """The paper's read-write workload: half bulk-loaded, half inserted.

    Attributes:
        build_keys: random half used for the initial bulk load (sorted).
        batches: insertion batches, each of size ``batch_fraction * n``
            where ``n`` is the size of *build_keys* (the paper's 0.1n).
    """

    build_keys: np.ndarray
    batches: tuple[np.ndarray, ...]

    @property
    def total_inserts(self) -> int:
        return int(sum(b.size for b in self.batches))


def split_read_write(
    keys: np.ndarray,
    rng: np.random.Generator,
    batch_fraction: float = 0.1,
    n_batches: int = 5,
) -> ReadWriteSplit:
    """Split *keys* for the read-write workload.

    A random half becomes the bulk-load set; the other half is dealt
    into *n_batches* random batches of ``batch_fraction`` of the build
    size each (0.1n × 5 = the full second half, as in Fig. 10).
    """
    keys = np.asarray(keys)
    if keys.size < 4:
        raise InvalidKeysError("need at least 4 keys for a read-write split")
    shuffled = rng.permutation(keys)
    half = keys.size // 2
    build = np.sort(shuffled[:half])
    rest = shuffled[half:]
    batch_size = max(1, int(half * batch_fraction))
    batches = []
    for i in range(n_batches):
        chunk = rest[i * batch_size : (i + 1) * batch_size]
        if chunk.size == 0:
            break
        batches.append(chunk)
    return ReadWriteSplit(build_keys=build, batches=tuple(batches))
