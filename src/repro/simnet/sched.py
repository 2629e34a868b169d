"""Import shim: the heap ``EventQueue`` is the kernel's only queue.
``TieredEventQueue`` exists only for the import in ``bench_e2e/probes.py``,
which patches its ``push``; nothing in ``src/`` or ``tests/`` uses it."""

from .events import EventQueue


class TieredEventQueue(EventQueue):
    push = EventQueue.push
