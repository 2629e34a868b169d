"""Sharded campaign driver: one campaign across N kernel processes.

``run_sharded_campaign`` partitions the overlay into ultrapeer- (or
search-node-) neighbourhood shards and runs one full
:class:`~repro.simnet.kernel.Simulator` per shard, advancing them in
conservative time windows (see :mod:`repro.simnet.shard` for the window
algebra) and exchanging cross-shard envelope batches at each barrier.

The execution model is **replicated control plane, partitioned data
plane**: every shard builds the *entire* world from the campaign seed --
bit-identical populations, topology and fault schedules everywhere --
and replays every autonomous timer (churn sessions, propagation
activations, fault windows) everywhere, so all shards agree on the
replicated state those timers touch.  Only *message traffic* is
partitioned: an endpoint's sends happen solely on its owner shard, and
deliveries are routed (locally or over a barrier batch) to the
destination's owner.  Replication costs each shard the full build and
the timer load, but it removes every consistency protocol except the
envelope exchange itself -- which is what keeps the whole thing
deterministic.

Determinism contract:

* ``shards=1`` is bit-identical to the plain kernel: the transport
  delegates verbatim, the driver degenerates to one ``run_until`` per
  program segment, and ``run_shard_equivalence_check`` proves digest +
  store-sha + metric identity on both networks.
* ``shards=N`` for any ``N >= 2`` is a deterministic *family*:
  per-source streams make every measured byte independent of which
  shard owns what, so the ``MeasurementStore`` content digest is
  invariant in ``N`` (proven by the N=2 vs N=3 tests).  The N-shard
  event interleaving necessarily differs from the single-process one
  (latency draws move to per-source streams), so N>=2 is a calibrated
  statistical twin of the plain kernel, not a bitwise one.

Two executors share the driver: :class:`SerialShardExecutor` (all
shards in-process -- the reference twin, and the 1-core fallback) and
:class:`ProcessShardExecutor` (shard 0 in the parent, shards 1..N-1 in
forked pipe workers, windows computed concurrently).  Worker death --
including the deliberate SIGKILL of the :class:`~repro.faults.plan.
ShardCrash` host-fault clause -- surfaces as :class:`ShardWorkerError`,
which the replication supervisor above treats like any crashed seed:
retry, then quarantine.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..malware.corpus import limewire_strains, openft_strains
from ..peers.population import build_gnutella_world, build_openft_world
from ..scanner.database import database_for_strains
from ..scanner.engine import ScanEngine
from ..simnet.clock import days
from ..simnet.kernel import Simulator
from ..simnet.shard import (ShardPlan, ShardedTransport, WindowDriver,
                            lookahead_of, window_run_target)
from .measure.campaign import (CampaignConfig, CampaignResult,
                               _arm_faults, _crawler_address,
                               _export_qrp, _export_transport,
                               _install_journal, default_profile)
from .measure.collector import LimewireCollector, OpenFTCollector
from .measure.download import Downloader
from .measure.queries import QueryWorkload
from .measure.store import MeasurementStore
from .parallel import merge_shard_snapshots

__all__ = ["ShardRuntime", "ShardReport", "ShardWorkerError",
           "SerialShardExecutor", "ProcessShardExecutor",
           "plan_for_world", "combine_shard_digests",
           "run_sharded_campaign"]

#: seconds a pipe worker may stay silent before it is declared dead
DEFAULT_WORKER_DEADLINE_S = 600.0


class ShardWorkerError(RuntimeError):
    """A shard worker died, wedged, or reported a failure mid-campaign."""

    def __init__(self, shard_id: int, reason: str) -> None:
        super().__init__(f"shard {shard_id} worker failed: {reason}")
        self.shard_id = shard_id
        self.reason = reason


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def plan_for_world(network: str, world, nshards: int) -> ShardPlan:
    """Derive the ownership plan from a freshly built world.

    The partitioning rule keeps each hub with its spokes: a Gnutella
    ultrapeer and the leaves shielded by it (a leaf with several
    shields follows its first), an OpenFT search node and the users
    whose first desired parent it is.  Neighbourhoods round-robin onto
    shards in build order.  Everything here reads only build-time state
    that is identical on every shard, so all shards derive the same
    plan independently -- no plan needs to cross a process boundary.
    """
    if nshards == 1:
        return ShardPlan(nshards=1)
    if network == "limewire":
        hubs = world.network.ultrapeers
        groups: List[List[str]] = [[hub.endpoint_id] for hub in hubs]
        hub_index = {hub.endpoint_id: i for i, hub in enumerate(hubs)}
        for leaf in world.network.leaves:
            slot = 0
            for peer_id in leaf.peer_ids:
                found = hub_index.get(peer_id)
                if found is not None:
                    slot = found
                    break
            groups[slot].append(leaf.endpoint_id)
    elif network == "openft":
        hubs = world.network.search_nodes
        groups = [[hub.endpoint_id] for hub in hubs]
        hub_index = {hub.endpoint_id: i for i, hub in enumerate(hubs)}
        for user in world.network.user_nodes:
            desired = world.network.desired_parents.get(user.endpoint_id, [])
            slot = 0
            for parent_id in desired:
                found = hub_index.get(parent_id)
                if found is not None:
                    slot = found
                    break
            groups[slot].append(user.endpoint_id)
    else:
        raise ValueError(f"unknown network {network!r}")
    return ShardPlan.from_groups(nshards, groups)


def combine_shard_digests(
        digests: Sequence[Optional[str]]) -> Optional[str]:
    """Fold per-shard event digests into one campaign digest.

    A single shard's digest passes through untouched, so the
    ``shards=1`` campaign digest is literally the plain kernel's.  For
    N shards the per-shard digests (in shard order -- a deterministic
    order, since the plan is) hash into one sha256.
    """
    if not digests or any(digest is None for digest in digests):
        return None
    if len(digests) == 1:
        return digests[0]
    combined = hashlib.sha256()
    for digest in digests:
        combined.update(digest.encode("ascii"))
        combined.update(b"\n")
    return combined.hexdigest()


def _shard_fingerprint(stats: dict, windows: int) -> str:
    """Cheap per-shard identity for the checkpoint journal.

    Events executed, windows crossed, and cross-shard envelope tallies
    pin down a shard's trajectory well enough to catch divergence on
    resume without shipping full digests through the journal.
    """
    text = (f"{stats['shard']}:{stats['events']}:{windows}:"
            f"{stats['cross_sent']}:{stats['cross_received']}:"
            f"{stats['digest']}")
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _set_shard_gauges(registry, stats: dict) -> None:
    """Shard-labelled telemetry gauges for one shard's run."""
    shard = str(stats["shard"])
    registry.gauge(
        "shard_events_processed",
        "Kernel events executed by one shard.",
        labels=("shard",)).labels(shard).set(stats["events"])
    registry.gauge(
        "shard_cross_envelopes_sent",
        "Cross-shard envelopes produced by one shard.",
        labels=("shard",)).labels(shard).set(stats["cross_sent"])
    registry.gauge(
        "shard_cross_envelopes_received",
        "Cross-shard envelopes ingested by one shard.",
        labels=("shard",)).labels(shard).set(stats["cross_received"])


def _shard_snapshot(stats: dict) -> dict:
    """A worker shard's telemetry contribution as a picklable snapshot."""
    from ..telemetry.registry import MetricRegistry

    registry = MetricRegistry()
    _set_shard_gauges(registry, stats)
    return registry.snapshot()


# ---------------------------------------------------------------------------
# one shard's world + campaign program
# ---------------------------------------------------------------------------

class ShardRuntime:
    """One shard: a full replicated world plus its campaign components.

    Construction mirrors ``run_limewire_campaign`` /
    ``run_openft_campaign`` step for step -- same stream names, same
    build order -- so the ``shards=1`` runtime is the plain campaign
    under a different driver.  The measurement plane (store, scanner,
    downloader, collector, journal) exists only on shard 0; the other
    shards are pure overlay.
    """

    def __init__(self, network: str, config: CampaignConfig, profile,
                 shard_id: int, nshards: int, telemetry=None,
                 collect_digest: bool = False) -> None:
        if network not in ("limewire", "openft"):
            raise ValueError(f"unknown network {network!r}")
        self.network_name = network
        self.config = config
        self.profile = profile if profile is not None \
            else default_profile(network)
        self.shard_id = shard_id
        self.nshards = nshards
        self.telemetry = telemetry
        self.registry = telemetry.registry if telemetry is not None else None

        self._digest = None
        kernel_telemetry = None
        if telemetry is not None:
            kernel_telemetry = telemetry.kernel
            if collect_digest:
                # same wiring as devtools.selfcheck: the digest rides
                # the kernel telemetry's per-event hook
                from ..devtools.sanitizer import EventDigest
                self._digest = EventDigest()
                telemetry.kernel.on_event = self._digest.on_event
        elif collect_digest:
            from ..devtools.sanitizer import digest_telemetry
            shim = digest_telemetry()
            kernel_telemetry = shim
            self._digest = shim.digest

        self.sim = Simulator(seed=config.seed, telemetry=kernel_telemetry)
        self.horizon = days(config.duration_days)
        self.strains = (limewire_strains() if network == "limewire"
                        else openft_strains())
        self.transport = ShardedTransport(self.sim,
                                          loss_rate=self.profile.loss_rate)
        if network == "limewire":
            self.world = build_gnutella_world(
                self.sim, self.profile, self.strains, self.horizon,
                transport=self.transport)
        else:
            self.world = build_openft_world(
                self.sim, self.profile, self.strains, self.horizon,
                transport=self.transport)
        self.injector, self.fetch_faults = _arm_faults(config, self.world,
                                                       self.registry)
        # the plan derives from replicated build state, after the build
        # (so all build-time traffic ran the plain replicated path)
        self.plan = plan_for_world(network, self.world, nshards)
        self.transport.bind(self.plan, shard_id)

        self.crawler = None
        self.store: Optional[MeasurementStore] = None
        self.engine = None
        self.downloader = None
        self.collector = None

    # -- shard-handle protocol (the WindowDriver's duck type) ---------------
    def peek(self) -> Optional[float]:
        return self.sim.queue.peek_time()

    def advance(self, target: float, inclusive: bool,
                batch: Sequence[tuple]) -> Tuple[list, Optional[float]]:
        self.transport.ingest(batch)
        self.sim.run_until(target if inclusive else window_run_target(target))
        return self.transport.take_outbox(), self.peek()

    def run_phase(self, name: str) -> Tuple[list, Optional[float]]:
        """Run one barrier-time program phase; returns its outbox."""
        if name == "bootstrap":
            self.crawler = self.world.network.bootstrap_crawler(
                "crawler", _crawler_address(self.world))
        elif name == "measure":
            if self.shard_id == 0:
                self._install_measurement()
        else:
            raise ValueError(f"unknown phase {name!r}")
        return self.transport.take_outbox(), self.peek()

    def _install_measurement(self) -> None:
        config, sim = self.config, self.sim
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        self.store = MeasurementStore(self.network_name)
        self.engine = ScanEngine(
            database_for_strains(self.strains, config.scanner_coverage),
            registry=self.registry)
        self.downloader = Downloader(sim, self.engine,
                                     config.download_policy,
                                     registry=self.registry, tracer=tracer,
                                     faults=self.fetch_faults)
        collector_cls = (LimewireCollector
                         if self.network_name == "limewire"
                         else OpenFTCollector)
        self.collector = collector_cls(sim, self.world.network, self.crawler,
                                       self.store, self.downloader,
                                       registry=self.registry, tracer=tracer)
        workload = QueryWorkload.from_catalog(
            self.world.catalog, sim.stream("campaign:workload"),
            popular_works=config.popular_works)
        if self.telemetry is not None:
            _install_journal(self.telemetry, sim, self.store, self.engine,
                             self.downloader,
                             until=self.horizon + config.drain_s)
        collector = self.collector
        sim.every(config.query_interval_s,
                  lambda: collector.issue_query(workload.next_query()),
                  label="query", jitter=sim.stream("campaign:jitter"),
                  until=self.horizon)

    def finish(self) -> dict:
        """Settle end-of-campaign telemetry; return this shard's stats."""
        if self.shard_id == 0 and self.telemetry is not None:
            # same closing sequence as the plain campaign's _run
            _export_transport(self.telemetry.registry, self.world.transport)
            _export_qrp(self.telemetry.registry, self.world.network)
            self.telemetry.tracer.close_open(self.sim.now)
            if self.telemetry.journal is not None:
                self.telemetry.journal.close(self.sim)
        return {
            "shard": self.shard_id,
            "events": self.sim.events_processed,
            "digest": (self._digest.hexdigest()
                       if self._digest is not None else None),
            "cross_sent": self.transport.cross_sent,
            "cross_received": self.transport.cross_received,
        }


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------

class SerialShardExecutor:
    """All shards in the calling process -- the reference twin.

    Identical window sequence, identical batches, identical results to
    the multi-process executor; only wall-clock differs.  Also the
    automatic fallback on single-core hosts, where extra processes buy
    nothing but pipe latency.
    """

    name = "serial"

    def __init__(self, network: str, config: CampaignConfig, profile,
                 nshards: int, telemetry=None,
                 collect_digest: bool = False) -> None:
        self.handles = [
            ShardRuntime(network, config, profile, shard_id, nshards,
                         telemetry=telemetry if shard_id == 0 else None,
                         collect_digest=collect_digest)
            for shard_id in range(nshards)]
        self.runtime0 = self.handles[0]

    def kill_shard(self, shard_id: int) -> None:
        raise ShardWorkerError(
            shard_id, "ShardCrash requires the process executor "
                      "(serial shards have no worker to kill)")

    def collect(self, want_snapshot: bool) -> List[dict]:
        stats = []
        for runtime in self.handles:
            entry = runtime.finish()
            if want_snapshot and runtime.shard_id != 0:
                entry["snapshot"] = _shard_snapshot(entry)
            stats.append(entry)
        return stats

    def close(self) -> None:
        pass


def _shard_worker(conn, network: str, config: CampaignConfig, profile,
                  shard_id: int, nshards: int, collect_digest: bool,
                  want_snapshot: bool) -> None:
    """Pipe-worker main loop: build one shard, serve barrier requests."""
    try:
        runtime = ShardRuntime(network, config, profile, shard_id, nshards,
                               telemetry=None, collect_digest=collect_digest)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # parent went away; nothing left to serve
            try:
                op = message[0]
                if op == "advance":
                    conn.send(("ok", runtime.advance(message[1], message[2],
                                                     message[3])))
                elif op == "peek":
                    conn.send(("ok", runtime.peek()))
                elif op == "phase":
                    conn.send(("ok", runtime.run_phase(message[1])))
                elif op == "finish":
                    stats = runtime.finish()
                    if want_snapshot:
                        stats["snapshot"] = _shard_snapshot(stats)
                    conn.send(("ok", stats))
                    return
                else:
                    conn.send(("error", f"unknown op {op!r}"))
                    return
            except BaseException as exc:  # noqa: BLE001
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
                return
    finally:
        conn.close()


class _WorkerProxy:
    """Shard handle speaking the barrier protocol over a pipe."""

    def __init__(self, conn, process, shard_id: int,
                 deadline_s: float) -> None:
        self.conn = conn
        self.process = process
        self.shard_id = shard_id
        self.deadline_s = deadline_s

    def _send(self, message) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(self.shard_id, f"pipe send failed: {exc}")

    def _recv(self):
        if not self.conn.poll(self.deadline_s):
            raise ShardWorkerError(
                self.shard_id,
                f"no reply within {self.deadline_s:.0f}s deadline")
        try:
            kind, value = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(
                self.shard_id, f"worker died mid-window ({exc!r})")
        if kind != "ok":
            raise ShardWorkerError(self.shard_id, str(value))
        return value

    def peek(self):
        self._send(("peek",))
        return self._recv()

    def start_advance(self, target: float, inclusive: bool, batch) -> None:
        self._send(("advance", target, inclusive, batch))

    def finish_advance(self):
        return self._recv()

    def advance(self, target: float, inclusive: bool, batch):
        self.start_advance(target, inclusive, batch)
        return self.finish_advance()

    def run_phase(self, name: str):
        self._send(("phase", name))
        return self._recv()

    def finish(self) -> dict:
        self._send(("finish",))
        return self._recv()


class ProcessShardExecutor:
    """Shard 0 in the parent, shards 1..N-1 in forked pipe workers.

    Workers are spawned *before* the parent builds shard 0, so the N
    replicated world builds run concurrently.  The parent keeps the
    measurement plane (store, telemetry, checkpoint journal) in its own
    address space -- results never cross a process boundary, only
    envelope batches and the final per-shard stats do.
    """

    name = "process"

    def __init__(self, network: str, config: CampaignConfig, profile,
                 nshards: int, telemetry=None, collect_digest: bool = False,
                 deadline_s: float = DEFAULT_WORKER_DEADLINE_S) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        want_snapshot = telemetry is not None
        self._procs = []
        proxies = []
        try:
            for shard_id in range(1, nshards):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, network, config, profile, shard_id,
                          nshards, collect_digest, want_snapshot),
                    daemon=True)
                process.start()
                child_conn.close()
                self._procs.append(process)
                proxies.append(_WorkerProxy(parent_conn, process, shard_id,
                                            deadline_s))
            self.runtime0 = ShardRuntime(network, config, profile, 0,
                                         nshards, telemetry=telemetry,
                                         collect_digest=collect_digest)
        except BaseException:
            self.close()
            raise
        self.handles = [self.runtime0] + proxies

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one worker (the ShardCrash clause's enforcement)."""
        process = self._procs[shard_id - 1]
        if process.pid is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)

    def collect(self, want_snapshot: bool) -> List[dict]:
        stats = [self.runtime0.finish()]
        for proxy in self.handles[1:]:
            stats.append(proxy.finish())
        return stats

    def close(self) -> None:
        for process in self._procs:
            if process.is_alive():
                process.terminate()
        for process in self._procs:
            process.join(timeout=10)
            if process.is_alive() and process.pid is not None:
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=10)


def _fork_available() -> bool:
    import multiprocessing

    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def _resolve_executor(executor: str, nshards: int) -> str:
    """Pick the executor: explicit choice, else fit the host.

    ``auto`` uses processes only where they can actually win -- a
    multi-core host with fork -- and otherwise runs the serial twin,
    which computes the exact same campaign.
    """
    if nshards == 1:
        return "serial"
    if executor == "serial":
        return "serial"
    if executor == "process":
        if not _fork_available():
            raise ValueError("process executor requires fork support")
        return "process"
    if executor != "auto":
        raise ValueError(f"unknown shard executor {executor!r}")
    cpus = os.cpu_count() or 1
    if cpus > 1 and _fork_available():
        return "process"
    return "serial"


# ---------------------------------------------------------------------------
# the campaign itself
# ---------------------------------------------------------------------------

@dataclass
class ShardReport:
    """How a sharded campaign executed, plus its determinism evidence."""

    nshards: int
    executor: str
    windows: int
    barriers: int
    lookahead_s: float
    #: per-shard stats dicts: shard, events, digest, cross_sent,
    #: cross_received, fingerprint
    shards: Tuple[dict, ...]
    #: combined campaign digest (per-shard EventDigests folded in shard
    #: order); None unless digests were collected
    digest: Optional[str] = None

    @property
    def fingerprints(self) -> Tuple[dict, ...]:
        """Per-shard journal fingerprints, in shard order."""
        return tuple({"shard": entry["shard"],
                      "events": entry["events"],
                      "fingerprint": entry["fingerprint"]}
                     for entry in self.shards)


def _campaign_program(network: str,
                      config: CampaignConfig) -> List[tuple]:
    """The barrier program mirroring the plain runners' run/phase order."""
    final = days(config.duration_days) + config.drain_s
    if network == "limewire":
        return [("phase", "bootstrap"), ("phase", "measure"),
                ("run", final)]
    # OpenFT: adoptions settle to t=300, then the crawler bootstraps and
    # gets 60s of node-list discovery before measurement starts -- the
    # same segmentation as run_openft_campaign
    return [("run", 300.0), ("phase", "bootstrap"), ("run", 360.0),
            ("phase", "measure"), ("run", final)]


def run_sharded_campaign(network: str,
                         config: Optional[CampaignConfig] = None,
                         profile=None, telemetry=None,
                         executor: str = "auto",
                         collect_digest: bool = False,
                         attempt: int = 0,
                         force_windows: bool = False,
                         deadline_s: float = DEFAULT_WORKER_DEADLINE_S,
                         ) -> CampaignResult:
    """Run one campaign across ``config.shards`` kernel shards.

    Returns the same :class:`CampaignResult` the plain runners do (the
    store, world, engine and fault injector are shard 0's), with
    ``result.shards`` carrying the :class:`ShardReport`.  ``attempt``
    is the replication attempt ordinal, consulted by the plan's
    :class:`~repro.faults.plan.ShardCrash` clause.
    """
    config = config or CampaignConfig()
    nshards = config.shards
    mode = _resolve_executor(executor, nshards)
    want_snapshot = telemetry is not None

    if mode == "process":
        executor_obj = ProcessShardExecutor(
            network, config, profile, nshards, telemetry=telemetry,
            collect_digest=collect_digest, deadline_s=deadline_s)
    else:
        executor_obj = SerialShardExecutor(
            network, config, profile, nshards, telemetry=telemetry,
            collect_digest=collect_digest)
    try:
        runtime0 = executor_obj.runtime0
        lookahead = lookahead_of(runtime0.world.transport.latency)
        driver = WindowDriver(executor_obj.handles, runtime0.plan,
                              lookahead, force_windows=force_windows)

        crash = config.fault_plan.shard_crash \
            if config.fault_plan is not None else None
        if crash is not None and crash.should_kill(config.seed, attempt) \
                and crash.shard < nshards and mode == "process":
            rounds = {"n": 0}

            def on_barrier() -> None:
                rounds["n"] += 1
                if rounds["n"] == crash.after_windows + 1:
                    executor_obj.kill_shard(crash.shard)

            driver.on_barrier = on_barrier

        for kind, value in _campaign_program(network, config):
            if kind == "run":
                driver.run_segment(value)
            else:
                for handle in driver.shards:
                    outbox, _peek = handle.run_phase(value)
                    driver.absorb(outbox)
        stats = executor_obj.collect(want_snapshot)
    finally:
        executor_obj.close()

    for entry in stats:
        entry["fingerprint"] = _shard_fingerprint(entry, driver.windows)
    digest = combine_shard_digests([entry["digest"] for entry in stats]) \
        if collect_digest else None

    if telemetry is not None:
        registry = telemetry.registry
        _set_shard_gauges(registry, stats[0])
        merge_shard_snapshots(
            registry,
            [entry["snapshot"] for entry in stats[1:]
             if entry.get("snapshot") is not None])
        registry.gauge("shard_count",
                       "Shards the campaign ran across.").set(nshards)
        registry.gauge("shard_windows",
                       "Conservative windows crossed.").set(driver.windows)

    report = ShardReport(
        nshards=nshards, executor=mode, windows=driver.windows,
        barriers=driver.barriers, lookahead_s=lookahead,
        shards=tuple(stats), digest=digest)
    result = CampaignResult(store=runtime0.store, world=runtime0.world,
                            config=config, engine=runtime0.engine,
                            telemetry=telemetry, faults=runtime0.injector)
    result.shards = report
    return result
