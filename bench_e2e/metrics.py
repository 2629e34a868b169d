"""The benchmark's metrics: names, units, direction and what they predict.

``BENCHMARK.json`` lists the same names and units (``run.py`` refuses to
run when the two disagree).  For each per-layer metric, ``moves`` says
which end-to-end metric it should move and on which workload, so a change
can state its prediction against it before it is measured.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metric this one should move, and on which workload
    moves: str = ""


#: what a user of a campaign sees; measured with tracing off
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower"),
    Metric("cpu_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("success_rate", "ratio", "higher"),
)

_CAMPAIGNS = "limewire-day, openft-day"

#: single layers, from the traced run
PER_LAYER: Tuple[Metric, ...] = (
    Metric("phase.build_s", "s", "lower", f"wall_s, setup_s on {_CAMPAIGNS}"),
    Metric("phase.bootstrap_s", "s", "lower", f"wall_s on {_CAMPAIGNS}"),
    Metric("phase.measure_s", "s", "lower",
           f"wall_s on {_CAMPAIGNS} (the final Simulator.run_until)"),
    Metric("phase.analysis_s", "s", "lower", f"wall_s on {_CAMPAIGNS}"),
    Metric("simnet.events", "count", "lower",
           "cpu_s on openft-day most, limewire-day less"),
    Metric("simnet.self_s", "s", "lower",
           "cpu_s on openft-day most, limewire-day less; twin deletion "
           "predicts no change"),
    Metric("simnet.sends", "count", "lower", "cpu_s on openft-day"),
    Metric("simnet.delivered", "count", "lower", "cpu_s on openft-day"),
    Metric("simnet.dropped", "count", "lower", "cpu_s on openft-day"),
    Metric("simnet.delivery_ratio", "ratio", "higher",
           "none: fixed by the latency/churn model"),
    Metric("gnutella.self_s", "s", "lower",
           "cpu_s and setup_s on limewire-day; zero on openft-day"),
    Metric("gnutella.envelopes", "count", "lower", "cpu_s on limewire-day"),
    Metric("gnutella.qrp_syncs", "count", "lower",
           "cpu_s and setup_s on limewire-day (QRP memo)"),
    Metric("gnutella.qrp_sync_s", "s", "lower",
           "cpu_s and setup_s on limewire-day (QRP memo)"),
    Metric("gnutella.frames_encoded", "count", "lower",
           "cpu_s on limewire-day"),
    Metric("gnutella.frames_decoded", "count", "lower",
           "cpu_s on limewire-day"),
    Metric("openft.self_s", "s", "lower", "cpu_s on openft-day only"),
    Metric("openft.envelopes", "count", "lower", "cpu_s on openft-day only"),
    Metric("openft.share_syncs", "count", "lower",
           "cpu_s on openft-day only (share cache)"),
    Metric("openft.share_sync_s", "s", "lower",
           "cpu_s on openft-day only (share cache)"),
    Metric("openft.packets_encoded", "count", "lower",
           "cpu_s on openft-day only"),
    Metric("openft.packets_decoded", "count", "lower",
           "cpu_s on openft-day only"),
    Metric("peers.count", "count", "higher",
           "none: the population the profile asks for"),
    Metric("peers.churn_flips", "count", "lower",
           "none: fixed by the churn model"),
    Metric("peers.churn_s", "s", "lower",
           "cpu_s on limewire-day (flips trigger QRP re-syncs)"),
    Metric("peers.self_s", "s", "lower",
           "setup_s and peak_rss_mb on limewire-day"),
    Metric("peers.rss_per_peer_kb", "KB", "lower",
           "peak_rss_mb and setup_s on limewire-day"),
    Metric("measure.queries", "count", "higher",
           "none: fixed by the query cadence"),
    Metric("measure.records", "count", "higher",
           "none: part of the pinned output"),
    Metric("measure.downloads", "count", "lower", "cpu_s on limewire-day"),
    Metric("measure.download_ok_ratio", "ratio", "higher",
           "none: fixed by the download model"),
    Metric("measure.self_s", "s", "lower", "cpu_s on limewire-day"),
    Metric("transfer.requests", "count", "lower", "cpu_s on limewire-day"),
    Metric("transfer.self_s", "s", "lower", "cpu_s on limewire-day"),
    Metric("scanner.scans", "count", "lower",
           "cpu_s on limewire-day; stays flat everywhere"),
    Metric("scanner.cache_hit_rate", "ratio", "higher",
           "cpu_s on limewire-day; stays flat everywhere"),
    Metric("scanner.self_s", "s", "lower",
           "cpu_s on limewire-day; stays flat everywhere"),
    Metric("pool.workers", "count", "higher", "wall_s on limewire-sweep only"),
    Metric("pool.seed_wall_s", "s", "lower", "wall_s on limewire-sweep only"),
    Metric("pool.efficiency", "ratio", "higher",
           "wall_s on limewire-sweep only"),
    Metric("pool.retries", "count", "lower", "wall_s on limewire-sweep only"),
    Metric("pool.quarantined", "count", "lower",
           "success_rate on limewire-sweep only"),
    Metric("telemetry.write_s", "s", "lower",
           "wall_s on limewire-sweep only"),
    Metric("telemetry.bytes", "bytes", "lower",
           "wall_s on limewire-sweep only"),
    Metric("trace.overhead_pct", "%", "lower",
           "none: traced wall_s against the untraced median"),
)


def layer_values(record: dict, overhead_pct: float) -> dict:
    """Every per-layer metric of one traced repetition's record."""
    layers, phases = record["layers"], record["phases"]
    pool = record.get("pool", {})

    def ratio(part, whole):
        return part / whole if whole else 0.0

    values = {f"phase.{name}": phases[name] for name in
              ("build_s", "bootstrap_s", "measure_s", "analysis_s")}
    values.update({name: value for name, value in layers.items()
                   if name in {metric.name for metric in PER_LAYER}})
    values.update({
        "simnet.delivery_ratio": ratio(layers["simnet.delivered"],
                                       layers["simnet.sends"]),
        "peers.rss_per_peer_kb": ratio(layers["peers.rss_growth_kb"],
                                       layers["peers.count"]),
        "measure.download_ok_ratio": ratio(layers["measure.downloads_ok"],
                                           layers["measure.downloads"]),
        "scanner.cache_hit_rate": ratio(layers["scanner.cache_hits"],
                                        layers["scanner.cache_requests"]),
        "trace.overhead_pct": overhead_pct,
    })
    for metric in PER_LAYER:
        if metric.name.startswith(("pool.", "telemetry.")):
            values[metric.name] = pool.get(metric.name, 0)
    return {metric.name: values[metric.name] for metric in PER_LAYER}
