"""Instrumentation the benchmark installs around the program's entry points.

Nothing here edits the program: every probe rebinds a public function or
method from outside, before the world is built, and calls the original.

Two levels:

* :meth:`Probe.install_phases` (always on) times the campaign phases --
  world build, crawler bootstrap and every ``Simulator.run_until`` --
  with a handful of calls per campaign, so it costs nothing measurable.
* :meth:`Probe.install_trace` (the traced run only) adds a span at each
  layer boundary and a counter at each codec.  A span's *self time* is
  its duration minus the time of the spans it encloses; it is charged to
  the layer of the module that defines the wrapped function, looked up in
  the ``[tool.detlint.layers]`` table.  ``files`` and ``malware`` get no
  spans, so their time counts toward the layer that called them.

:meth:`Probe.check_bindings` and :meth:`Probe.check_counts` prove the
wrapping complete: no module still holds an unwrapped binding, every
boundary expected on the workload recorded calls, and wrapper counts
equal the program's own public counters.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

#: layers whose time is charged to their caller (no spans of their own)
PASS_THROUGH = ("files", "malware")

#: the module-level bindings of ``sync_leaf_qrt`` a traced run must wrap
QRP_BINDINGS = (("repro.gnutella.topology", "sync_leaf_qrt"),
                ("repro.gnutella.topology", "_sync_qrp"),
                ("repro.peers.population", "sync_leaf_qrt"))

#: the protocol layer each measured network runs on
STACK = {"limewire": "gnutella", "openft": "openft"}

#: boundaries that must record calls, by network
EXPECTED = {
    "common": ("kernel.callback", "simnet.send", "simnet.run_until",
               "peers.build", "peers.churn", "bootstrap",
               "measure.download_attempt", "transfer.request",
               "scanner.scan"),
    "limewire": ("gnutella.envelope", "gnutella.qrp_sync",
                 "gnutella.encode", "gnutella.decode"),
    "openft": ("openft.envelope", "openft.share_sync", "openft.encode",
               "openft.decode"),
}


class BenchmarkError(RuntimeError):
    """A check of the benchmark failed; the run counts as failed."""


def load_layers(root: Path) -> List[str]:
    """Layer names declared in ``[tool.detlint.layers]`` of pyproject.toml."""
    path = root / "pyproject.toml"
    if tomllib is None:
        raise BenchmarkError("reading pyproject.toml needs Python >= 3.11")
    with open(path, "rb") as handle:
        table = tomllib.load(handle)
    return sorted(name for name in table["tool"]["detlint"]["layers"]
                  if not name.startswith("<"))


def current_rss_bytes() -> int:
    """Resident set size now (peak RSS where /proc is unavailable)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _repro_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _bindings(original) -> List[tuple]:
    """Every (module, attribute) of loaded repro modules bound to it."""
    return [(module.__name__, attr) for module in _repro_modules()
            for attr, value in list(vars(module).items())
            if value is original]


def _unwrap_target(fn):
    target = getattr(fn, "__func__", fn)
    return getattr(target, "func", target)  # functools.partial


class Probe:
    """Phase timers, layer spans and boundary counters for one campaign."""

    def __init__(self, layers: List[str], traced: bool) -> None:
        self.layers = set(layers)
        #: True when install_trace runs: the phase timers gain spans too
        self.traced = traced
        self._layer_cache: Dict[str, Optional[str]] = {}
        self._originals: Dict[str, object] = {}
        self._wrapped: Dict[str, List[tuple]] = {}
        self.instances: Dict[str, list] = defaultdict(list)
        # the wrappers hold these containers; reset() empties them in place
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self.run_untils: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded time and count (one probe, many seeds)."""
        for tally in (self.calls, self.self_s, self.incl_s, self._stack,
                      self.run_untils, self.instances):
            tally.clear()
        self.build_s = 0.0
        self.build_end = 0.0
        self.bootstrap_s = 0.0
        self.rss_before_build = 0
        self.rss_after_build = 0

    # -- layer lookup ------------------------------------------------------
    def layer_of_module(self, module: str) -> Optional[str]:
        """The layer a module's time is charged to (None: its caller's)."""
        if module in self._layer_cache:
            return self._layer_cache[module]
        parts = module.split(".")
        layer = "other"
        if parts[0] == "repro" and len(parts) > 1:
            top = parts[1]
            if top == "core":
                layer = ("measure" if len(parts) > 2 and parts[2] == "measure"
                         else "core")
            elif top in PASS_THROUGH:
                layer = None
            elif top in self.layers:
                layer = top
        self._layer_cache[module] = layer
        return layer

    def layer_of(self, fn) -> Optional[str]:
        """The layer of the module that defines callable ``fn``."""
        return self.layer_of_module(
            getattr(_unwrap_target(fn), "__module__", None) or "")

    # -- wrappers ------------------------------------------------------------
    def span(self, layer: Optional[str], name: str, fn: Callable,
             keep_meta: bool = True) -> Callable:
        """Wrap ``fn`` in a span charged to ``layer`` and counted as ``name``.

        ``keep_meta=False`` skips copying ``fn``'s metadata, for the
        wrappers made once per scheduled event.
        """
        calls, stack = self.calls, self._stack
        self_s, incl_s = self.self_s, self.incl_s
        if layer is None:
            return self.counter(name, fn, keep_meta)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                incl_s[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
        return functools.wraps(fn)(wrapper) if keep_meta else wrapper

    def counter(self, name: str, fn: Callable, keep_meta: bool = True
                ) -> Callable:
        """Wrap ``fn`` so its calls are counted as ``name`` (no span)."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper) if keep_meta else wrapper

    def timer(self, fn: Callable, on_done: Callable[[float, float], None]
              ) -> Callable:
        """Wrap ``fn`` so ``on_done(start, end)`` sees each call's interval."""
        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                on_done(started, perf_counter())
        return functools.wraps(fn)(wrapper)

    def rebind_function(self, key: str, original, replacement) -> int:
        """Point every module binding of ``original`` at ``replacement``."""
        sites = _bindings(original)
        for module_name, attr in sites:
            setattr(sys.modules[module_name], attr, replacement)
        self._originals[key] = original
        self._wrapped[key] = sites
        return len(sites)

    def patch_method(self, cls, name: str, make: Callable[[Callable], Callable]
                     ) -> None:
        """Replace ``cls.name`` by ``make(original)``, keeping its kind."""
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(cls, name, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, name, make(raw))

    # -- phase timers (every run) -------------------------------------------
    def install_phases(self) -> None:
        """Time build, bootstrap and each ``run_until``, nothing else."""
        from repro.gnutella.network import GnutellaNetwork
        from repro.openft.network import OpenFTNetwork
        from repro.peers import population
        from repro.simnet.kernel import Simulator

        def built(started: float, ended: float) -> None:
            self.build_s += ended - started
            self.build_end = ended
            self.rss_after_build = current_rss_bytes()

        def booted(started: float, ended: float) -> None:
            self.bootstrap_s += ended - started

        def ran(started: float, ended: float) -> None:
            self.run_untils.append((started, ended))

        for fn_name in ("build_gnutella_world", "build_openft_world"):
            original = getattr(population, fn_name)

            def before_build(fn=original):
                def wrapper(*args, **kwargs):
                    self.rss_before_build = current_rss_bytes()
                    return fn(*args, **kwargs)
                return functools.wraps(fn)(wrapper)
            wrapped = before_build()
            if self.traced:
                wrapped = self.span("peers", "peers.build", wrapped)
            self.rebind_function(fn_name, original,
                                 self.timer(wrapped, built))
        for cls in (GnutellaNetwork, OpenFTNetwork):
            def make_boot(fn, cls=cls):
                if self.traced:
                    fn = self.span(self.layer_of_module(cls.__module__),
                                   "bootstrap", fn)
                return self.timer(fn, booted)
            self.patch_method(cls, "bootstrap_crawler", make_boot)

        def make_run(fn):
            if self.traced:
                fn = self.span("simnet", "simnet.run_until", fn)
            return self.timer(fn, ran)
        self.patch_method(Simulator, "run_until", make_run)

    def phases(self) -> Dict[str, float]:
        """Build, bootstrap and measure seconds of the last campaign.

        ``measure`` is the final ``run_until``; ``bootstrap`` runs from
        the end of the world build to its start (crawler discovery and,
        on OpenFT, the adoption settle), and ``setup`` is build plus the
        ``bootstrap_crawler`` call itself.
        """
        if not self.run_untils or not self.build_end:
            raise BenchmarkError("phase timers saw no campaign")
        measure_start, measure_end = self.run_untils[-1]
        return {"build_s": self.build_s,
                "bootstrap_s": measure_start - self.build_end,
                "measure_s": measure_end - measure_start,
                "setup_s": self.build_s + self.bootstrap_s}

    # -- layer spans (traced run) ---------------------------------------------
    def install_trace(self) -> None:
        """Spans at every layer boundary, counters at every codec."""
        from repro.core.measure import collector, download
        from repro.gnutella import messages, topology
        from repro.gnutella.network import GnutellaNetwork
        from repro.gnutella.servent import GnutellaServent
        from repro.openft import packets
        from repro.openft.network import OpenFTNetwork
        from repro.openft.nodes import OpenFTNode
        from repro.scanner.engine import ScanEngine
        from repro.simnet import churn, events, sched
        from repro.simnet.kernel import Simulator
        from repro.simnet.transport import Transport
        from repro.telemetry.runtime import CampaignTelemetry
        from repro.transfer import http, server

        # every kernel callback, charged to the layer that defined it
        def wrap_callback(callback):
            return self.span(self.layer_of(callback), "kernel.callback",
                             callback, keep_meta=False)

        for queue_cls in (events.EventQueue, sched.TieredEventQueue):
            def make_push(fn):
                def push(queue, time, callback, label="", args=()):
                    return fn(queue, time, wrap_callback(callback), label,
                              args)
                return functools.wraps(fn)(push)
            self.patch_method(queue_cls, "push", make_push)

        # periodic tasks: the kernel's tick is one span, the task another
        def make_every(fn):
            def every(sim, interval, callback, *args, **kwargs):
                task = self.span(self.layer_of(callback), "every.task",
                                 callback)
                return fn(sim, interval, task, *args, **kwargs)
            return functools.wraps(fn)(every)
        self.patch_method(Simulator, "every", make_every)

        self.patch_method(Transport, "send",
                          lambda fn: self.span("simnet", "simnet.send", fn))

        # churn: the flip (kernel side) and the population's hooks
        self.patch_method(churn.ChurnProcess, "_flip",
                          lambda fn: self.span("simnet", "peers.churn", fn))
        churn_signature = inspect.signature(churn.ChurnProcess.__init__)

        def make_churn_init(fn):
            def init(*args, **kwargs):
                bound = churn_signature.bind(*args, **kwargs)
                for hook in ("on_up", "on_down"):
                    callback = bound.arguments[hook]
                    bound.arguments[hook] = self.span(
                        self.layer_of(callback), "peers.churn_hook",
                        callback)
                return fn(*bound.args, **bound.kwargs)
            return functools.wraps(fn)(init)
        self.patch_method(churn.ChurnProcess, "__init__", make_churn_init)

        # protocol stacks: receive paths, public methods and share sync
        receive = {"_on_envelope": "envelope",
                   "_on_envelope_reference": "envelope"}
        for cls, layer, named in (
                (GnutellaServent, "gnutella", receive),
                (OpenFTNode, "openft",
                 dict(receive, sync_shares_to="share_sync",
                      sync_shares="share_sync")),
                (GnutellaNetwork, "gnutella", {}),
                (OpenFTNetwork, "openft", {})):
            self._wrap_methods(cls, layer, named, public_only=True)
        self.rebind_function(
            "sync_leaf_qrt", topology.sync_leaf_qrt,
            self.span("gnutella", "gnutella.qrp_sync",
                      topology.sync_leaf_qrt))

        codecs = (("gnutella.encode", messages, ("frame", "patch_ttl_hops")),
                  ("gnutella.decode", messages, ("parse_header",
                                                 "parse_frame")),
                  ("openft.encode", packets, ("encode_packet",
                                              "patch_search_ttl")),
                  ("openft.decode", packets, ("decode_packet",
                                              "parse_packet_header")))
        for count_name, module, names in codecs:
            for name in names:
                original = getattr(module, name)
                self.rebind_function(f"{module.__name__}.{name}", original,
                                     self.counter(count_name, original))

        # measurement: collectors and the downloader
        for cls in (collector.LimewireCollector, collector.OpenFTCollector):
            self._wrap_methods(cls, "measure", {}, public_only=False)
        self._wrap_methods(download.Downloader, "measure",
                           {"_attempt": "download_attempt"},
                           public_only=False)

        def make_downloader_init(fn):
            def init(downloader, *args, **kwargs):
                self.instances["downloader"].append(downloader)
                return fn(downloader, *args, **kwargs)
            return functools.wraps(fn)(init)
        self.patch_method(download.Downloader, "__init__",
                          make_downloader_init)

        # transfer, scanner, telemetry artifacts
        self.rebind_function("serve_request", server.serve_request,
                             self.span("transfer", "transfer.request",
                                       server.serve_request))
        for cls in (http.HttpRequest, http.HttpResponse):
            for name in ("encode", "decode"):
                self.patch_method(cls, name, lambda fn: self.span(
                    "transfer", "transfer.http", fn))
        self.patch_method(ScanEngine, "scan", lambda fn: self.span(
            "scanner", "scanner.scan", fn))
        self.patch_method(CampaignTelemetry, "write_outputs",
                          lambda fn: self.span("telemetry", "telemetry.write",
                                               fn))

    def _wrap_methods(self, cls, layer: str, named: Dict[str, str],
                      public_only: bool) -> None:
        """Span every plain method of ``cls`` (only public ones if asked).

        Methods in ``named`` are counted as ``<layer>.<named[name]>``,
        the rest as ``<layer>.api``; ``bootstrap_crawler`` is left to
        :meth:`install_phases`.
        """
        for name, raw in sorted(vars(cls).items()):
            function = raw.__func__ if isinstance(raw, staticmethod) else raw
            if (not inspect.isfunction(function) or name.startswith("__")
                    or name == "bootstrap_crawler"
                    or (public_only and name.startswith("_")
                        and name not in named)):
                continue
            count_name = f"{layer}.{named.get(name, 'api')}"
            self.patch_method(cls, name, lambda fn, count_name=count_name:
                              self.span(layer, count_name, fn))

    # -- checks ------------------------------------------------------------
    def check_bindings(self) -> None:
        """Fail unless every binding of every wrapped function is wrapped."""
        for key, original in self._originals.items():
            stray = _bindings(original)
            if stray:
                raise BenchmarkError(
                    f"unwrapped binding(s) of {key}: {stray}")
        if self.traced:
            wrapped = set(self._wrapped.get("sync_leaf_qrt", ()))
            missing = [site for site in QRP_BINDINGS if site not in wrapped]
            if missing:
                raise BenchmarkError(
                    f"sync_leaf_qrt bindings not wrapped: {missing}")

    def check_counts(self, network: str, result) -> None:
        """Expected boundaries ran and counts match the program's own."""
        if not self.traced:
            return
        for name in EXPECTED["common"] + EXPECTED[network]:
            if self.calls[name] == 0:
                raise BenchmarkError(
                    f"boundary {name} recorded no calls on {network}")
        other = "openft" if network == "limewire" else "limewire"
        for name in EXPECTED[other]:
            if self.calls[name]:
                raise BenchmarkError(
                    f"boundary {name} ran on a {network} campaign")
        transport = result.world.transport
        # the transport has no public endpoint list; sends are counted
        # per endpoint (delivered or not) plus the drops made up front
        endpoints = vars(transport)["_endpoints"].values()
        upfront = sum(transport.drop_causes[cause] for cause in
                      ("offline-sender", "unknown-dst", "random-loss"))
        downloader = self.instances["downloader"][-1]
        pairs = (
            ("kernel.callback", result.sim.events_processed),
            ("simnet.send", sum(e.sent for e in endpoints) + upfront),
            (f"{STACK[network]}.envelope", transport.delivered),
            ("scanner.scan", result.engine.scan_requests),
            ("peers.churn", sum(process.transitions for process
                                in result.world.churn_processes)),
            ("measure.download_attempt", downloader.attempts),
        )
        for name, public in pairs:
            if self.calls[name] != public:
                raise BenchmarkError(
                    f"wrapper count {name}={self.calls[name]} differs from "
                    f"the program's counter {public}")
