"""Workload generators and drivers for the paper's two evaluation
protocols (read-only and read-write)."""

from .generators import ReadWriteSplit, sample_queries, split_read_write
from .readonly import QueryProfile, profile_queries
from .readwrite import BatchObservation, run_insert_batches

__all__ = [
    "BatchObservation",
    "QueryProfile",
    "ReadWriteSplit",
    "profile_queries",
    "run_insert_batches",
    "sample_queries",
    "split_read_write",
]
