"""Tests for the parallel replication fan-out."""

import multiprocessing.process
import os

import pytest

from repro.core.experiments import (_UNWATCHED, replicate_one,
                                    run_replications)
from repro.core.measure.campaign import CampaignConfig
from repro.core.parallel import resolve_workers
from repro.peers.profiles import GnutellaProfile
from repro.resilience import supervised_map


def _square(value):
    return value * value


def _boom(value):
    raise RuntimeError("bad seed")


def _die_on_two(value):
    if value == 2:
        os._exit(3)  # no result, no traceback: the worker just vanishes
    return value * value


class TestResolveWorkers:
    def test_explicit_count_capped_by_tasks(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(2, 10) == 2

    def test_none_means_cpu_count(self):
        assert resolve_workers(None, 1000) >= 1

    def test_floor_of_one(self):
        assert resolve_workers(0, 5) == 1
        assert resolve_workers(-3, 5) == 1


class TestParallelMap:
    """The replication pool as an unsupervised run drives it.

    ``run_replications`` fans every seed out through ``supervised_map``;
    without ``supervision`` it passes a policy whose watchdogs never
    fire, so the pool behaves as a plain parallel map.
    """

    def test_one_worker_runs_every_item(self):
        assert supervised_map(_square, [1, 2, 3], workers=1,
                              policy=_UNWATCHED) == [1, 4, 9]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert supervised_map(_square, items, workers=4,
                              policy=_UNWATCHED) == [i * i for i in items]

    def test_empty_items(self):
        assert supervised_map(_square, [], workers=4,
                              policy=_UNWATCHED) == []

    def test_single_item(self):
        assert supervised_map(_square, [5], workers=4,
                              policy=_UNWATCHED) == [25]

    def test_falls_back_when_pool_unavailable(self, monkeypatch):
        def no_fork(self):
            raise OSError("no fork for you")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            no_fork)
        seen = []
        results = supervised_map(_square, [1, 2, 3], workers=4,
                                 policy=_UNWATCHED,
                                 on_result=lambda item, result:
                                 seen.append((item, result)))
        assert results == [1, 4, 9]
        assert seen == [(1, 1), (2, 4), (3, 9)]

    def test_worker_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="bad seed"):
            supervised_map(_boom, [1, 2], workers=1, policy=_UNWATCHED)

    def test_dead_worker_degrades_without_requeue(self):
        kills = []
        results = supervised_map(
            _die_on_two, [1, 2, 3], workers=2, policy=_UNWATCHED,
            failure=lambda item, reason: ("failed", item, reason),
            on_kill=kills.append)
        assert results[0] == 1 and results[2] == 9
        failed, item, reason = results[1]
        assert (failed, item) == ("failed", 2) and "died" in reason
        assert [(kill.item, kill.requeued) for kill in kills] == [
            (2, False)]


class TestParallelReplications:
    @pytest.fixture(scope="class")
    def setup(self):
        return (CampaignConfig(seed=0, duration_days=0.1),
                GnutellaProfile().scaled(0.4))

    def test_parallel_matches_serial_bit_identical(self, setup):
        config, profile = setup
        seeds = (3, 4)
        serial = run_replications("limewire", seeds, config,
                                  profile=profile, workers=1)
        parallel = run_replications("limewire", seeds, config,
                                    profile=profile, workers=2)
        assert serial.seeds == parallel.seeds
        assert set(serial.metrics) == set(parallel.metrics)
        for name in serial.metrics:
            # bit-identical floats, not approx: same seed, same world
            assert serial.metrics[name].values == \
                parallel.metrics[name].values

    def test_replicate_one_matches_serial_runner(self, setup):
        config, profile = setup
        serial = run_replications("limewire", (3,), config,
                                  profile=profile, workers=1)
        single = replicate_one("limewire", config, profile, 3)
        for name, summary in serial.metrics.items():
            assert summary.values == (single[name],)

    def test_replicate_one_unknown_network(self, setup):
        config, profile = setup
        with pytest.raises(ValueError):
            replicate_one("kazaa", config, profile, 1)
