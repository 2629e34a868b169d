"""One repetition of one workload, in a fresh interpreter.

Usage (from the root of a checkout)::

    python3 bench_e2e/rep.py --workload limewire-day --seed 2 --trace 0 \\
        --work .bench_work/tmp

Runs the workload through the program's public API, computes its
headline metrics and store digest, and prints one JSON object: the
outputs the orchestrator (``run.py``) checks against ``pins.json`` plus
the phase timings and, with ``--trace 1``, the per-layer tallies.  The
campaign seed is taken as given; mapping the benchmark's ``--seed`` onto
the pinned panel is the orchestrator's job.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from probes import BenchmarkError, Probe, load_layers  # noqa: E402

#: workload -> (network, virtual days, population scale); the sweep is
#: separate because it fans out over the process pool
CAMPAIGNS = {
    "limewire-day": ("limewire", 1.0, 1.0),
    "openft-day": ("openft", 1.0, 1.0),
    "limewire-scale4": ("limewire", 0.125, 4.0),
}
SWEEP = "limewire-sweep"
SWEEP_SEEDS = 6
SWEEP_DAYS = 0.25
WORKLOADS = tuple(CAMPAIGNS) + (SWEEP,)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def campaign_record(probe: Probe, network: str, result) -> dict:
    """Outputs, phases and (traced) layer tallies of one finished campaign."""
    from repro.core.experiments import HEADLINE_METRICS

    started = perf_counter()
    headline = {name: metric(result)
                for name, metric in HEADLINE_METRICS[network].items()}
    digest = result.store.content_digest()
    phases = probe.phases()
    phases["analysis_s"] = perf_counter() - started
    record = {"digest": digest, "headline": headline,
              "events": result.sim.events_processed,
              "records": len(result.store), "phases": phases}
    if probe.traced:
        probe.check_counts(network, result)
        record["layers"] = layer_tallies(probe, result)
    return record


def layer_tallies(probe: Probe, result) -> dict:
    """Raw per-layer counts and seconds; ratios are formed by the caller."""
    calls, self_s, incl_s = probe.calls, probe.self_s, probe.incl_s
    transport = result.world.transport
    downloader = probe.instances["downloader"][-1]
    engine = result.engine
    peers = len(result.world.churn_processes)
    growth = max(0, probe.rss_after_build - probe.rss_before_build)
    return {
        "simnet.events": result.sim.events_processed,
        "simnet.self_s": self_s["simnet"],
        "simnet.sends": calls["simnet.send"],
        "simnet.delivered": transport.delivered,
        "simnet.dropped": transport.dropped,
        "gnutella.self_s": self_s["gnutella"],
        "gnutella.envelopes": calls["gnutella.envelope"],
        "gnutella.qrp_syncs": calls["gnutella.qrp_sync"],
        "gnutella.qrp_sync_s": incl_s["gnutella.qrp_sync"],
        "gnutella.frames_encoded": calls["gnutella.encode"],
        "gnutella.frames_decoded": calls["gnutella.decode"],
        "openft.self_s": self_s["openft"],
        "openft.envelopes": calls["openft.envelope"],
        "openft.share_syncs": calls["openft.share_sync"],
        "openft.share_sync_s": incl_s["openft.share_sync"],
        "openft.packets_encoded": calls["openft.encode"],
        "openft.packets_decoded": calls["openft.decode"],
        "peers.count": peers,
        "peers.churn_flips": calls["peers.churn"],
        "peers.churn_s": incl_s["peers.churn"],
        "peers.self_s": self_s["peers"],
        "peers.rss_growth_kb": growth / 1024.0,
        "measure.queries": result.store.queries_issued,
        "measure.records": len(result.store),
        "measure.downloads": downloader.attempts,
        "measure.downloads_ok": downloader.successes,
        "measure.self_s": self_s["measure"],
        "transfer.requests": calls["transfer.request"],
        "transfer.self_s": self_s["transfer"],
        "scanner.scans": engine.scans_performed,
        "scanner.cache_hits": engine.cache_hits,
        "scanner.cache_requests": engine.scan_requests,
        "scanner.self_s": self_s["scanner"],
    }


def run_campaign(probe: Probe, workload: str, seed: int) -> dict:
    """One campaign workload; returns its record plus peak RSS."""
    from repro.core.measure.campaign import (CampaignConfig, default_profile,
                                             run_limewire_campaign,
                                             run_openft_campaign)

    network, days, scale = CAMPAIGNS[workload]
    runner = (run_limewire_campaign if network == "limewire"
              else run_openft_campaign)
    result = runner(CampaignConfig(seed=seed, duration_days=days),
                    profile=default_profile(network, scale))
    record = campaign_record(probe, network, result)
    record["seed"] = seed
    record["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    return record


def run_sweep(probe: Probe, seed: int, work: Path) -> dict:
    """``run_replications`` over six seeds on every CPU, telemetry on.

    The pool's workers inherit the probes; each writes one record per
    seed attempt into ``work`` and the parent folds them together.
    """
    from repro.core import experiments
    from repro.core.experiments import run_replications
    from repro.core.measure.campaign import CampaignConfig
    from repro.core.parallel import resolve_workers

    seeds = list(range(seed, seed + SWEEP_SEEDS))
    workers = resolve_workers(len(os.sched_getaffinity(0)), len(seeds))
    records_dir = work / "seeds"
    telemetry_dir = work / "telemetry"
    records_dir.mkdir(parents=True)
    captured = {}

    runner = experiments.run_limewire_campaign

    def capture(*args, **kwargs):
        captured["result"] = runner(*args, **kwargs)
        return captured["result"]
    probe.rebind_function("run_limewire_campaign", runner, capture)

    replicate_one = experiments.replicate_one

    def replicate(network, config, profile, seed, **kwargs):
        probe.reset()
        captured.clear()
        attempt = kwargs.get("attempt", 0)
        path = records_dir / f"seed{seed}_attempt{attempt}.json"
        started = perf_counter()
        try:
            metrics = replicate_one(network, config, profile, seed, **kwargs)
            busy_s = perf_counter() - started
            record = campaign_record(probe, network, captured["result"])
        except Exception as exc:
            path.write_text(json.dumps({"seed": seed, "attempt": attempt,
                                        "error": repr(exc)}))
            raise
        record.update(seed=seed, attempt=attempt, busy_s=busy_s,
                      write_s=probe.incl_s["telemetry.write"])
        path.write_text(json.dumps(record))
        return metrics
    probe.rebind_function("replicate_one", replicate_one, replicate)
    probe.check_bindings()

    started = perf_counter()
    report = run_replications(
        "limewire", seeds, CampaignConfig(duration_days=SWEEP_DAYS),
        workers=workers, telemetry_dir=telemetry_dir)
    wall_s = perf_counter() - started

    attempts = [json.loads(path.read_text())
                for path in sorted(records_dir.iterdir())]
    if report.degraded:
        errors = [entry["error"] for entry in attempts if "error" in entry]
        raise BenchmarkError(f"sweep degraded: {errors or report.failures}")
    # a seed that failed and then passed its retry counts in pool.retries
    by_seed = {entry["seed"]: entry for entry in attempts
               if "error" not in entry}
    per_seed = [by_seed[s] for s in seeds]
    busy = [entry["busy_s"] for entry in per_seed]
    phases = {name: statistics.median(entry["phases"][name]
                                      for entry in per_seed)
              for name in per_seed[0]["phases"]}
    record = {
        "seed": seed,
        "digests": {str(s): by_seed[s]["digest"] for s in seeds},
        "events": {str(s): by_seed[s]["events"] for s in seeds},
        "records": {str(s): by_seed[s]["records"] for s in seeds},
        "headline": {name: summary.mean
                     for name, summary in report.metrics.items()},
        "phases": phases,
        "peak_rss_mb": max(_peak_rss_mb(resource.RUSAGE_CHILDREN),
                           _peak_rss_mb(resource.RUSAGE_SELF)),
        "pool": {"pool.workers": workers,
                 "pool.seed_wall_s": statistics.median(busy),
                 "pool.efficiency": sum(busy) / (workers * wall_s),
                 "pool.retries": sum(1 for e in attempts if e["attempt"]),
                 "pool.quarantined": len(report.failures),
                 "telemetry.write_s": sum(e["write_s"] for e in per_seed),
                 "telemetry.bytes": sum(p.stat().st_size for p in
                                        telemetry_dir.rglob("*")
                                        if p.is_file())},
    }
    if probe.traced:
        record["layers"] = sum_layers([entry["layers"] for entry in per_seed])
    return record


def sum_layers(per_seed: list) -> dict:
    """Counts and seconds add across seeds; population and RSS do not.

    A pool worker reuses the memory its earlier seeds freed, so only its
    first build shows the real growth: take the largest.
    """
    total = {name: sum(layers[name] for layers in per_seed)
             for name in per_seed[0]}
    for name in ("peers.count", "peers.rss_growth_kb"):
        total[name] = max(layers[name] for layers in per_seed)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True,
                        help="empty scratch directory for this repetition")
    args = parser.parse_args(argv)

    probe = Probe(load_layers(ROOT), traced=bool(args.trace))
    try:
        probe.install_phases()
        if probe.traced:
            probe.install_trace()
        probe.check_bindings()
        if args.workload == SWEEP:
            record = run_sweep(probe, args.seed, args.work)
        else:
            record = run_campaign(probe, args.workload, args.seed)
    except BenchmarkError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
