"""Outside-in layer tracer: wraps simulator entry points from the outside.

Nothing inside ``src/`` is instrumented.  :class:`Tracer` replaces chosen
methods (at class level) and free functions (in every module namespace
that looks them up) with thin wrappers, then puts every original back in
:meth:`Tracer.restore`.  Wrappers come in two kinds:

* a **span** times the call and attributes *self time*: its duration
  minus the time covered by spans it called into.  Self times of all
  spans plus the time outside any span add up to the traced wall time.
* a **counter** only counts (calls, or a quantity read off the arguments
  or the result).  Its cost lands in the self time of the enclosing span.
  Per-page hot calls are counters, because timing them would distort the
  spans around them.

A span nested directly in a span of the same name (a ``super()`` chain,
or a method calling itself) folds into the outer one: it is counted and
timed once.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable

__all__ = ["Tracer", "arg"]


def arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    """Argument *index* (counting ``self``) or keyword *name* of a call."""
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span self times and counters for wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: span or counter name -> [self seconds, calls]; counters stay at 0 s
        self._records: dict[str, list] = {}
        #: extra counts read off calls (pages, frames, successes...)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def span(
        self,
        fn: Callable,
        name: str | Callable[[tuple], str],
        extra: Callable[[Counter, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """Wrap *fn* as a timed span.  *name* may be a function of the
        call's positional arguments (e.g. to attribute an inherited method
        by the instance's class); *extra* adds counts from the call."""
        clock = self.clock
        stack = self._stack
        records = self._records
        counts = self.counts
        fixed = records.setdefault(name, [0.0, 0]) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            if fixed is None:
                label = name(args)
                record = records.setdefault(label, [0.0, 0])
            else:
                label, record = name, fixed
            if stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            record[1] += 1
            if extra is not None:
                extra(counts, args, kwargs, result)
            return result

        return wrapper

    def counter(
        self,
        fn: Callable,
        name: str,
        extra: Callable[[Counter, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """Wrap *fn* to count calls (``<name>.calls``) without timing."""
        counts = self.counts
        record = self._records.setdefault(name, [0.0, 0])

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record[1] += 1
            if extra is not None:
                extra(counts, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, make(original))

    def patch_tree(self, base: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Patch *attr* on *base* and on every subclass defining its own."""
        pending = [base]
        seen: set[type] = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in vars(cls):
                self.patch(cls, attr, make)
            pending.extend(cls.__subclasses__())

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def self_s(self, name: str) -> float:
        """Self seconds of span *name* (0 if it never ran)."""
        return self._records.get(name, (0.0, 0))[0]

    def calls(self, name: str) -> int:
        """Calls of span or counter *name*, folded calls excluded."""
        return self._records.get(name, (0.0, 0))[1]

    def spans_total(self) -> float:
        """Sum of all span self times: the traced time inside any span."""
        return sum(record[0] for record in self._records.values())

    def snapshot(self) -> dict[str, float]:
        """Every call count and extra count, for comparing repeats."""
        figures = {f"{name}.calls": record[1] for name, record in self._records.items()}
        figures.update(self.counts)
        return figures
