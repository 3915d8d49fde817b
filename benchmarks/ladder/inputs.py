"""Seed -> inputs: the key set, the request streams, and the oracle.

Everything the program under test receives is generated here from
``--seed``; the same seed gives byte-identical request streams, so
operation counts (and with them merge / flush / compaction counts)
repeat exactly from run to run.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, replace

import numpy as np

from repro.datasets import generate

#: Service shape shared by all four workloads (the issue's "common
#: input"): the hard clustered dataset, LIPP, 4 equi-depth shards,
#: the paper's default smoothing budget.
DATASET = "osm"
FAMILY = "lipp"
N_SHARDS = 4
ALPHA = 0.1

#: Keys per wire request / per write request / per bulk-scan batch.
WIRE_BATCH = 256
WRITE_BATCH = 64
#: Load-generator connections: 2 keep-alive connections whatever nproc
#: is, so numbers from differently sized boxes stay comparable.
CONNECTIONS = 2
#: Share of queried keys that are absent, and (mixed only) that target
#: writes the same connection already had acknowledged.
ABSENT_SHARE = 0.10
OWN_WRITE_SHARE = 0.10
WRITE_REQUEST_SHARE = 0.10

#: ``--seconds`` for which the sizes below were calibrated (2 cores):
#: three passes measure for about this long on every workload.
REFERENCE_SECONDS = 15


@dataclass(frozen=True)
class Config:
    """Operation counts of one run; fixed counts, never durations.

    The defaults are the published sizes.  :meth:`for_seconds` scales
    the per-pass request counts with ``--seconds``; the tests build a
    tiny instance directly.
    """

    n_keys: int = 40_000
    passes: int = 3
    warmup_requests: int = 200
    lookup_requests: int = 1_300      # http_lookup, per pass
    mixed_requests: int = 1_111       # http_mixed_durable, per pass (1 000 reads)
    bulk_batch_keys: int = 40_000
    bulk_batches: int = 70            # bulk_scan lookups, per pass
    range_calls: int = 250            # bulk_scan ranges, per pass
    range_keys: int = 1_000
    traced_requests: int = 500        # HTTP prefix replayed in the traced run
    traced_batches: int = 50          # bulk batches (and ranges) in the traced run

    @classmethod
    def for_seconds(cls, seconds: float) -> "Config":
        scale = float(seconds) / REFERENCE_SECONDS
        ref = cls()

        def scaled(count: int, floor: int) -> int:
            return max(floor, int(round(count * scale)))

        # csv_build has no request count to scale: a pass is one build
        # and one reopen of the common key set, whatever --seconds is.
        return replace(
            ref,
            lookup_requests=scaled(ref.lookup_requests, 100),
            mixed_requests=scaled(ref.mixed_requests, 100),
            bulk_batches=scaled(ref.bulk_batches, 4),
            range_calls=scaled(ref.range_calls, 20),
        )


def value_for(keys: np.ndarray) -> np.ndarray:
    """The value every base key carries (never equal to the key)."""
    return keys * 3 + 1


def written_value_for(keys: np.ndarray) -> np.ndarray:
    """The value every inserted key carries (distinct from base values)."""
    return keys * 3 + 2


@dataclass(frozen=True)
class KeySet:
    keys: np.ndarray     # sorted unique int64
    values: np.ndarray
    oracle: dict[int, int]


def make_keys(cfg: Config, seed: int) -> KeySet:
    keys = generate(DATASET, cfg.n_keys, seed)
    values = value_for(keys)
    return KeySet(keys, values, dict(zip(keys.tolist(), values.tolist())))


def absent_keys(rng: np.random.Generator, base: np.ndarray, count: int,
                exclude: np.ndarray | None = None) -> np.ndarray:
    """*count* distinct keys that are in neither *base* nor *exclude*,
    each a short hop from a base key — inside the key range and inside
    the dense regions, where the smoothing's virtual points sit."""
    out = np.empty(0, dtype=np.int64)
    while out.size < count:
        hop = rng.integers(1, 1 << 12, size=2 * count)
        cand = base[rng.integers(0, base.size, size=2 * count)] + hop
        cand = cand[(cand > base[0]) & (cand < base[-1])]
        cand = np.setdiff1d(cand, base)
        if exclude is not None:
            cand = np.setdiff1d(cand, exclude)
        out = np.union1d(out, cand)
    return rng.permutation(out)[:count]


def _mix(rng: np.random.Generator, *parts: np.ndarray) -> np.ndarray:
    return rng.permutation(np.concatenate(parts))


def lookup_batch(rng: np.random.Generator, base: np.ndarray,
                 absent_pool: np.ndarray, size: int) -> np.ndarray:
    n_absent = int(round(size * ABSENT_SHARE))
    return _mix(
        rng,
        rng.choice(base, size - n_absent),
        rng.choice(absent_pool, n_absent),
    )


@dataclass(frozen=True)
class Request:
    """One wire request, encoded once, with what its reply must say."""

    kind: str                    # "lookup" | "insert"
    keys: np.ndarray
    obj: dict                    # the JSON body as an object (traced client)
    wire: bytes                  # the full HTTP/1.1 request (untraced generator)
    expect: list | None          # lookup: oracle value or None per key


PATHS = {"lookup": "/v1/lookup", "insert": "/v1/insert"}


def encode_http(path: str, obj: dict) -> bytes:
    body = json.dumps(obj).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: ladder\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def lookup_request(keys: np.ndarray, oracle: dict[int, int]) -> Request:
    listed = keys.tolist()
    obj = {"keys": listed}
    return Request("lookup", keys, obj, encode_http(PATHS["lookup"], obj),
                   [oracle.get(k) for k in listed])


def insert_request(keys: np.ndarray) -> Request:
    obj = {"keys": keys.tolist(), "values": written_value_for(keys).tolist()}
    return Request("insert", keys, obj, encode_http(PATHS["insert"], obj), None)


def lookup_streams(ks: KeySet, rng: np.random.Generator,
                   n_requests: int) -> list[list[Request]]:
    """Read-only streams, one per connection."""
    absent = absent_keys(rng, ks.keys, 4 * WIRE_BATCH)
    streams: list[list[Request]] = [[] for _ in range(CONNECTIONS)]
    for i in range(n_requests):
        batch = lookup_batch(rng, ks.keys, absent, WIRE_BATCH)
        streams[i % CONNECTIONS].append(lookup_request(batch, ks.oracle))
    return streams


def mixed_streams(ks: KeySet, rng: np.random.Generator,
                  n_requests: int) -> tuple[list[list[Request]], dict[int, int]]:
    """Read/write streams plus the acknowledged-write oracle.

    Every read key is in a state no interleaving can change: a base
    key (writes never touch base keys), a key no request ever writes,
    or a key this same connection inserted earlier in its own stream
    (closed loop: that insert was acknowledged before this read left).
    """
    per_conn = [len(range(c, n_requests, CONNECTIONS)) for c in range(CONNECTIONS)]
    n_writes = [int(round(n * WRITE_REQUEST_SHARE)) for n in per_conn]
    fresh = absent_keys(rng, ks.keys, sum(n_writes) * WRITE_BATCH)
    absent = absent_keys(rng, ks.keys, 4 * WIRE_BATCH, fresh)
    n_absent = int(round(WIRE_BATCH * ABSENT_SHARE))
    n_own = int(round(WIRE_BATCH * OWN_WRITE_SHARE))
    written: dict[int, int] = {}
    streams: list[list[Request]] = []
    taken = 0
    for conn in range(CONNECTIONS):
        is_write = np.zeros(per_conn[conn], dtype=bool)
        is_write[rng.choice(per_conn[conn], n_writes[conn], replace=False)] = True
        own = np.empty(0, dtype=np.int64)
        oracle = dict(ks.oracle)
        stream: list[Request] = []
        for write in is_write:
            if write:
                batch = fresh[taken : taken + WRITE_BATCH]
                taken += WRITE_BATCH
                own = np.concatenate([own, batch])
                acked = dict(zip(batch.tolist(), written_value_for(batch).tolist()))
                oracle.update(acked)
                written.update(acked)
                stream.append(insert_request(batch))
                continue
            k_own = n_own if own.size else 0
            batch = _mix(
                rng,
                rng.choice(ks.keys, WIRE_BATCH - n_absent - k_own),
                rng.choice(absent, n_absent),
                rng.choice(own, k_own) if k_own else own[:0],
            )
            stream.append(lookup_request(batch, oracle))
        streams.append(stream)
    return streams, written


def interleave(streams: list[list[Request]]) -> list[Request]:
    """Round-robin merge for the single-connection traced replay; each
    stream's own order (what the read-your-writes expectations rest on)
    is preserved."""
    out: list[Request] = []
    for i in range(max(len(s) for s in streams)):
        out.extend(s[i] for s in streams if i < len(s))
    return out


def range_slices(ks: KeySet, rng: np.random.Generator, calls: int,
                 span_keys: int) -> list[slice]:
    """Slices of the key array; a range call asks for ``[keys[s.start],
    keys[s.stop - 1]]`` and must return exactly that slice's pairs."""
    span = min(span_keys, ks.keys.size)
    starts = rng.integers(0, ks.keys.size - span + 1, size=calls)
    return [slice(s, s + span) for s in starts.tolist()]


def stream_rng(seed: int, workload: str) -> np.random.Generator:
    """Independent, reproducible stream per (seed, workload)."""
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])
