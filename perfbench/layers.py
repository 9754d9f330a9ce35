"""Span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's side of each layer boundary: a
traced run replaces bound methods on the live instances (the FTL, its
translation table, Logarithmic Gecko, the garbage collector) with timing
wrappers. No program code changes, and the classes themselves stay
untouched, so the untraced runs execute exactly the program under test.

Each span adds its duration to its own *inclusive* time and to its parent's
child time; a span's *self* time is its duration minus the time its child
spans cover. Summing self times over all spans of a phase accounts for the
phase's wall time, up to the benchmark's own loop overhead.

Flash primitives (``FlashDevice``, ``IOStats``) and the ``TimingModel`` are
slotted, and a device subclass would switch ``submit()`` off its inlined
plain-device path, so those layers are reported from counters only.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Optional


class NoTrace:
    """Untraced runs: every span is the callable itself."""

    def span(self, name: str, fn: Callable) -> Callable:
        return fn

    def instrument(self, ftl: Any) -> None:
        """Nothing to install."""

    def uninstall(self) -> None:
        """Nothing to remove."""


class Tracer:
    """In-memory span recorder with self-time attribution."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Child time accumulated by each open span; the bottom slot
        #: collects the top-level spans of the measured loop.
        self._stack = [0.0]
        #: (instance, attribute) pairs shadowed by a span.
        self._installed: list = []
        self.gc_migrated = 0
        self.gc_reclaimed = 0

    def span(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call records a span ``name``."""
        stack = self._stack
        inclusive = self.inclusive
        exclusive = self.exclusive
        calls = self.calls
        clock = perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                inclusive[name] += elapsed
                exclusive[name] += elapsed - children
                calls[name] += 1
        return timed

    def _wrap(self, owner: Any, attribute: str, name: str,
              fn: Optional[Callable] = None) -> None:
        fn = fn or getattr(owner, attribute)
        setattr(owner, attribute, self.span(name, fn))
        self._installed.append((owner, attribute))

    def instrument(self, ftl: Any) -> None:
        """Install spans on the entry points of every layer below submit.

        Only calls made through instance attributes are seen, which is how
        these entry points are reached: GeckoFTL's inlined eviction calls
        ``self._synchronize_translation_page``, its inlined invalidation
        calls ``gecko.flush_buffer``, and the collector reaches victim
        selection and collection through ``self``.
        """
        self._wrap(ftl, "_synchronize_translation_page", "translation.sync")
        table = ftl.translation_table
        self._wrap(table, "lookup", "translation.lookup")
        self._wrap(table, "lookup_batch", "translation.lookup")
        gecko = getattr(ftl, "gecko", None)
        if gecko is not None:
            self._wrap(gecko, "flush_buffer", "gecko.flush")
            self._wrap(gecko, "gc_query_bitmap", "gecko.query")
            self._wrap(gecko, "gc_query", "gecko.query")
        collector = ftl.garbage_collector
        self._wrap(collector, "choose_victim", "gc.victim_select")
        collect = collector.collect_block

        def collect_block(victim):
            result = collect(victim)
            self.gc_migrated += result.migrated_pages
            self.gc_reclaimed += result.reclaimed_pages
            return result
        self._wrap(collector, "collect_block", "gc.collect", collect_block)

    def uninstall(self) -> None:
        """Drop the spans ``instrument`` installed (class methods return)."""
        for owner, attribute in self._installed:
            delattr(owner, attribute)
        self._installed.clear()

    def self_total(self) -> float:
        """Sum of every span's self time."""
        return sum(self.exclusive.values())
