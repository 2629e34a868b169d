"""End-to-end campaign benchmark with a per-layer breakdown.

Usage (from the root of a checkout)::

    python3 bench_e2e/run.py --workload limewire-day --seed 0 \\
        --seconds 35 --trace 0
    python3 bench_e2e/run.py --workload all --seed 0 --seconds 35 --trace 1

Each repetition runs one workload in a fresh interpreter
(``bench_e2e/rep.py``).  ``--seed n`` picks the campaign seeds from the
pinned panel in ``pins.json``: repetition ``i`` runs panel seed
``(n + i) mod len(panel)``, so every run checks its outputs -- store
digest, headline metrics, event and record counts -- against pinned
values, and a mismatch fails the repetition.

``--trace 0`` repeats the workload for about ``--seconds`` (at least
once; a repetition starts only if half of a typical one still fits) and
reports the end-to-end metrics as medians over the repetitions.
``--trace 1`` runs one panel seed untraced, traced, untraced, traced,
checks that all four agree exactly (outputs, and every per-layer count
between the traced runs), and reports the per-layer metrics as medians
of the two traced runs.  Every metric is printed by name with its unit;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter
from typing import List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, layer_values  # noqa: E402
from rep import WORKLOADS  # noqa: E402

#: a run must end within this many seconds, whatever --seconds says
RUN_DEADLINE_S = 170.0
#: scratch space inside the checkout (listed in .gitignore)
WORK_DIR = ROOT / ".bench_work"
#: the outputs of a repetition that pins.json fixes for each panel seed
OUTPUT_KEYS = ("digest", "digests", "headline", "events", "records")


class Rep(NamedTuple):
    """One repetition: its cost as the user sees it and what it printed."""

    seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    record: Optional[dict]
    error: str


def preflight() -> dict:
    """Refuse to run outside a full checkout; return the pins."""
    for needed in (ROOT / "src" / "repro" / "__init__.py",
                   ROOT / "pyproject.toml", HERE / "pins.json"):
        if not needed.is_file():
            raise SystemExit(f"bench_e2e: {needed.relative_to(ROOT)} is "
                             f"missing; run from the root of a checkout")
    manifest = ROOT / "BENCHMARK.json"
    if manifest.is_file():
        declared = json.loads(manifest.read_text())
        for key, metrics in (("end_to_end", END_TO_END),
                             ("per_layer", PER_LAYER)):
            listed = [(m["name"], m["unit"]) for m in declared[key]]
            ours = [(m.name, m.unit) for m in metrics]
            if listed != ours:
                raise SystemExit(f"bench_e2e: BENCHMARK.json {key} differs "
                                 f"from bench_e2e/metrics.py")
    return json.loads((HERE / "pins.json").read_text())


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a repetition's process group and wait for it.

    The sweep's pool workers share the group; after a normal exit the
    group is already empty.  Orphans are reaped by init, so poll (for at
    most a few seconds) until the group is gone.
    """
    for _ in range(100):
        proc.poll()  # reap the leader first: a zombie still counts
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    proc.wait()


def run_rep(workload: str, seed: int, traced: bool, timeout_s: float) -> Rep:
    """Run ``rep.py`` in its own process group and wait for all of it."""
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)),
               "--work", str(work)]
    cpu_before = _children_cpu_s()
    started = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {timeout_s:.0f} s"
    finally:
        wall_s = perf_counter() - started
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    cpu_s = _children_cpu_s() - cpu_before
    lines = stdout.strip().splitlines()
    record, error = None, ""
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if record is None or "error" in record:
        error = (record or {}).get("error") or (
            stderr.strip().splitlines() or ["no output"])[-1]
        if proc.returncode:
            error = f"exit {proc.returncode}: {error}"
        record = None
    return Rep(seed, traced, wall_s, cpu_s, record, error)


def check(workload: str, rep: Rep, pins: dict) -> List[str]:
    """Mismatches between one repetition's outputs and the pins."""
    if rep.record is None:
        return [rep.error]
    pinned = pins["workloads"][workload].get(str(rep.seed))
    if pinned is None:
        return [f"no pins for seed {rep.seed}"]
    problems = []
    for key in OUTPUT_KEYS:
        if key in pinned and rep.record.get(key) != pinned[key]:
            problems.append(f"{key} {rep.record.get(key)!r} != pinned "
                            f"{pinned[key]!r}")
    return problems


def describe(rep: Rep, problems: List[str]) -> str:
    """One line per repetition: seed, cost and the output check."""
    kind = "traced" if rep.traced else "untraced"
    verdict = "ok" if not problems else "FAIL " + "; ".join(problems)
    digest = ""
    if rep.record is not None:
        digest = rep.record.get("digest") or ",".join(
            value[:8] for value in rep.record["digests"].values())
        digest = f" digest {digest[:16]}"
    return (f"  rep seed {rep.seed:<3d} {kind:<8s} wall {rep.wall_s:7.3f} s "
            f"cpu {rep.cpu_s:7.3f} s{digest} {verdict}")


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 pins: dict) -> dict:
    """All repetitions of one workload; returns the result object."""
    panel = pins["panel"]
    started = perf_counter()
    deadline = started + RUN_DEADLINE_S
    reps: List[Rep] = []

    def next_rep():
        """(campaign seed, traced) of the next repetition, or None."""
        index = len(reps)
        if traced:
            # untraced, traced, untraced, traced -- all on one seed
            return ((panel[seed % len(panel)], index % 2 == 1)
                    if index < 4 else None)
        if reps:
            # start another only if at least half of it fits in --seconds
            elapsed = perf_counter() - started
            typical = statistics.median(rep.wall_s for rep in reps)
            longest = max(rep.wall_s for rep in reps)
            if (elapsed + 0.5 * typical > seconds
                    or elapsed + 1.5 * longest > RUN_DEADLINE_S):
                return None
        return panel[(seed + index) % len(panel)], False

    failures = 0
    print(f"workload {workload}  --seed {seed}  "
          f"{'traced' if traced else 'untraced'}")
    while (planned := next_rep()) is not None:
        rep = run_rep(workload, *planned, deadline - perf_counter())
        problems = check(workload, rep, pins)
        failures += bool(problems)
        reps.append(rep)
        print(describe(rep, problems), flush=True)

    if traced and not failures:
        failures += determinism_guard(reps)
    good = [rep for rep in reps if rep.record is not None]
    metrics = {}
    if traced:
        traced_reps = [rep for rep in good if rep.traced]
        plain = [rep.wall_s for rep in good if not rep.traced]
        if traced_reps and plain:
            overhead = 100.0 * (
                statistics.median(rep.wall_s for rep in traced_reps)
                / statistics.median(plain) - 1.0)
            per_rep = [layer_values(rep.record, overhead)
                       for rep in traced_reps]
            metrics = {m.name: {"value": statistics.median(
                           values[m.name] for values in per_rep),
                                "unit": m.unit}
                       for m in PER_LAYER}
    elif good:
        values = {
            "wall_s": statistics.median(rep.wall_s for rep in good),
            "cpu_s": statistics.median(rep.cpu_s for rep in good),
            "setup_s": statistics.median(rep.record["phases"]["setup_s"]
                                         for rep in good),
            "peak_rss_mb": statistics.median(rep.record["peak_rss_mb"]
                                             for rep in good),
            "success_rate": (len(reps) - failures) / len(reps),
        }
        metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                   for m in END_TO_END}
    for name, metric in metrics.items():
        print(f"  {name:<28s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  {'error_rate':<28s} {failures / len(reps):>16.6f} ratio "
          f"({failures} of {len(reps)} runs failed)")
    complete = len(metrics) == len(PER_LAYER if traced else END_TO_END)
    return {"correct": failures == 0 and complete, "attempted": len(reps),
            "failed": failures, "metrics": metrics}


def determinism_guard(reps: List[Rep]) -> int:
    """Outputs and exact counts must repeat across runs of one seed.

    Every repetition must agree on digest, headline metrics, events and
    records, traced or not; the traced ones also on every per-layer
    count.  Returns 1 (one failed run) on the first difference.
    """
    counts = [m.name for m in PER_LAYER if m.unit == "count"]

    def layer_counts(record):
        values = layer_values(record, 0.0)
        return [values[name] for name in counts]
    first = reps[0].record
    first_traced = next(rep.record for rep in reps if rep.traced)
    for rep in reps[1:]:
        differing = [key for key in OUTPUT_KEYS
                     if rep.record.get(key) != first.get(key)]
        if rep.traced and layer_counts(rep.record) != layer_counts(
                first_traced):
            differing.append("per-layer counts")
        if differing:
            print(f"  FAIL determinism: {', '.join(differing)} differ "
                  f"between runs of seed {rep.seed}")
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end campaign benchmark (see bench_e2e/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a polite kill into an exception so repetitions are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    pins = preflight()
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), pins)
        else:
            results = {name: run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), pins)
                       for name in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {name: r["metrics"]
                            for name, r in results.items()}}
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
