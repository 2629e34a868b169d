"""Process-wide switch between the data-plane fast path and its twin.

The data plane has two implementations, selected once when a
:class:`~repro.simnet.transport.Transport`,
:class:`~repro.gnutella.servent.GnutellaServent` or
:class:`~repro.openft.nodes.OpenFTNode` is constructed -- nothing else
reads the flag:

* the **fast path** (default): encode-once fan-out with ttl/hops header
  patching, lazy body decode, allocation-lean args-carrying delivery
  events;
* the **reference path**: the straightforward encode-per-hop /
  decode-everything implementation the fast path must be bit-identical
  to.

Both paths draw the same random numbers in the same order and schedule
the same events under the same labels, so a campaign run is
byte-identical either way -- same store sha256, same headline metrics,
same kernel :class:`~repro.devtools.sanitizer.EventDigest`.
``repro-study selfcheck --equivalence``,
``tests/integration/test_dataplane_equivalence.py`` and the
``bench_dataplane`` leg of ``benchmarks/baseline.py`` assert exactly
that.

The switch is a plain module flag, *not* an environment variable:
``src/`` never reads ``os.environ`` (detlint DET006).  Flip it with
:func:`set_slow_path` or :class:`use_slow_path` before building the
world -- never mid-run.
"""

from __future__ import annotations

__all__ = ["slow_path_enabled", "set_slow_path", "use_slow_path"]

_SLOW_PATH = False


def slow_path_enabled() -> bool:
    """True when new components should take the reference path."""
    return _SLOW_PATH


def set_slow_path(enabled: bool) -> bool:
    """Flip the process-wide path selection; returns the previous value."""
    global _SLOW_PATH
    previous = _SLOW_PATH
    _SLOW_PATH = bool(enabled)
    return previous


class use_slow_path:
    """Context manager scoping the reference path to one world build."""

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._previous = False

    def __enter__(self) -> "use_slow_path":
        self._previous = set_slow_path(self._enabled)
        return self

    def __exit__(self, *exc_info) -> None:
        set_slow_path(self._previous)
