"""Workload generators and drivers for the paper's two evaluation
protocols (read-only and read-write)."""

from .generators import ReadWriteSplit, sample_queries, split_read_write
from .readonly import QueryProfile, profile_queries
from .readwrite import BatchObservation, run_insert_batches
from .service_driver import ServiceWorkloadReport, run_service_workload

__all__ = [
    "BatchObservation",
    "QueryProfile",
    "ReadWriteSplit",
    "ServiceWorkloadReport",
    "profile_queries",
    "run_insert_batches",
    "run_service_workload",
    "sample_queries",
    "split_read_write",
]
