"""Helpers for multi-seed replication fan-out.

A replication campaign is embarrassingly parallel: every seed builds its
own world, runs its own simulator and touches no shared state, so seeds
run in separate OS processes through the one worker pool,
:func:`repro.resilience.supervisor.supervised_map`.  This module holds
the two pieces the fan-out needs around that pool: how many workers to
start, and how to fold the workers' telemetry back together.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

__all__ = ["resolve_workers", "merge_worker_registries"]


def resolve_workers(workers: Optional[int], tasks: int) -> int:
    """Effective worker count: ``None`` means one per CPU, capped by tasks."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(workers, tasks))


def merge_worker_registries(parent, snapshots: Iterable[dict]):
    """Fold per-worker ``MetricRegistry`` snapshots into ``parent``.

    Workers cannot share a registry across process boundaries, so each
    ships back ``registry.snapshot()`` (a plain picklable dict) and the
    parent merges them here **in input order** -- counters and
    histograms sum, gauges keep the max -- making the merged registry
    identical no matter which worker finished first.  Returns
    ``parent``.
    """
    for snapshot in snapshots:
        parent.merge_snapshot(snapshot)
    return parent
