"""Trace analysis: span trees, critical paths and differential runs.

Two consumers of the telemetry a run leaves behind:

* **Critical-path extraction** — rebuild the span forest from the
  close-ordered ``(name, host, start, duration, depth)`` trace, walk
  each ``fleet.epoch``/``sim.epoch`` tree down its dominant child and
  roll the walks up into a "where did the time go" report.
* **Differential run analysis** — :func:`diff_runs` compares two runs
  (live :class:`Telemetry` or an ``export_run`` directory) on three
  axes: per-host event-stream divergence keyed on
  :meth:`Event.identity` (deterministic — two runs of the same seed
  must match exactly), counter deltas (also
  deterministic) and span self-time deltas (wall-clock, noisy).  Span
  deltas are *attributed*: each significant one is paired with the
  event-kind count change most likely driving it.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.obs.events import Event
from repro.obs.export import read_jsonl
from repro.obs.telemetry import Telemetry

__all__ = [
    "SpanNode",
    "build_span_trees",
    "CriticalPath",
    "CriticalPathReport",
    "critical_paths",
    "RunData",
    "SpanDelta",
    "KindDelta",
    "HostDivergence",
    "RunDiff",
    "diff_runs",
    "host_range_text",
]

#: Root span names analysed by default: one per simulated epoch.
DEFAULT_ROOTS = ("fleet.epoch", "sim.epoch")


# ---------------------------------------------------------------------------
# span forest reconstruction


@dataclass
class SpanNode:
    """One closed span with its reconstructed children."""

    name: str
    host: int | None
    start: float
    duration: float
    depth: int
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def child_s(self) -> float:
        return sum(child.duration for child in self.children)

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration - self.child_s)


def build_span_trees(trace: list[tuple]) -> list[SpanNode]:
    """Rebuild the span forest from close-ordered trace tuples.

    Spans are appended when they *close*, so every child precedes its
    parent and a single pass with a pending-per-depth map reattaches
    them: a span at depth ``d`` adopts everything pending at ``d + 1``.
    Orphans (parents lost to trace truncation) surface as roots.
    """
    pending: dict[int, list[SpanNode]] = {}
    roots: list[SpanNode] = []
    for name, host, start, duration, depth in trace:
        node = SpanNode(
            name, host, start, duration, depth, pending.pop(depth + 1, [])
        )
        if depth == 0:
            roots.append(node)
        else:
            pending.setdefault(depth, []).append(node)
    for depth in sorted(pending):
        roots.extend(pending[depth])
    return roots


# ---------------------------------------------------------------------------
# critical paths


@dataclass
class CriticalPath:
    """One dominant-child walk, aggregated over the epochs it won."""

    path: tuple[str, ...]
    count: int
    total_s: float
    share: float


@dataclass
class CriticalPathReport:
    """Where the time went, over all matched root spans."""

    roots: tuple[str, ...]
    epochs: int
    total_s: float
    paths: list[CriticalPath]
    #: name -> {"count", "total_s", "self_s"} over matched trees only.
    attribution: dict[str, dict[str, float]]


def critical_paths(
    source, roots: tuple[str, ...] = DEFAULT_ROOTS
) -> CriticalPathReport:
    """Extract per-epoch dominant-child critical paths from a trace.

    *source* is a :class:`Telemetry` or a raw span-trace list.  Each
    root span (one per epoch) is walked down its largest child;
    identical walks are aggregated and ranked by the time they account
    for.
    """
    if isinstance(source, Telemetry):
        trace = source.span_trace()
    else:
        trace = list(source)
    trees = build_span_trees(trace)
    matched = [tree for tree in trees if tree.name in roots]
    if not matched:
        matched = trees
    paths: dict[tuple[str, ...], list] = {}
    attribution: dict[str, dict[str, float]] = {}
    total_s = 0.0
    for tree in matched:
        total_s += tree.duration
        walk = [tree.name]
        node = tree
        while node.children:
            node = max(
                node.children, key=lambda child: (child.duration, -child.start)
            )
            walk.append(node.name)
        entry = paths.setdefault(tuple(walk), [0, 0.0])
        entry[0] += 1
        entry[1] += tree.duration
        stack = [tree]
        while stack:
            node = stack.pop()
            stat = attribution.setdefault(
                node.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            stat["count"] += 1
            stat["total_s"] += node.duration
            stat["self_s"] += node.self_s
            stack.extend(node.children)
    ranked = sorted(
        (
            CriticalPath(
                path=path,
                count=entry[0],
                total_s=entry[1],
                share=entry[1] / total_s if total_s else 0.0,
            )
            for path, entry in paths.items()
        ),
        key=lambda item: (-item.total_s, item.path),
    )
    return CriticalPathReport(
        roots=tuple(roots),
        epochs=len(matched),
        total_s=total_s,
        paths=ranked,
        attribution=attribution,
    )


# ---------------------------------------------------------------------------
# differential run analysis


@dataclass
class RunData:
    """Normalised view of one run, whatever it came from."""

    label: str
    spans: dict[str, dict[str, float]]
    counters: dict[str, float]
    events: list[Event]
    stats: dict = field(default_factory=dict)

    @classmethod
    def from_telemetry(cls, telemetry: Telemetry, label: str) -> "RunData":
        return cls(
            label=label,
            spans=telemetry.span_stats(),
            counters=dict(telemetry.counters),
            events=telemetry.events(),
            stats=telemetry.stats(),
        )

    @classmethod
    def from_export_dir(
        cls, path: str | pathlib.Path, label: str | None = None
    ) -> "RunData":
        out = pathlib.Path(path)
        events_path = out / "events.jsonl"
        spans_path = out / "spans.json"
        stats_path = out / "stats.json"
        events = (
            read_jsonl(events_path.read_text())
            if events_path.exists()
            else []
        )
        spans = (
            json.loads(spans_path.read_text()) if spans_path.exists() else {}
        )
        counters: dict[str, float] = {}
        stats: dict = {}
        if stats_path.exists():
            payload = json.loads(stats_path.read_text())
            counters = payload.get("counters", {})
            stats = payload.get("stats", {})
        return cls(
            label=label if label is not None else str(out),
            spans=spans,
            counters=counters,
            events=events,
            stats=stats,
        )

    @classmethod
    def coerce(cls, source, label: str) -> "RunData":
        if isinstance(source, cls):
            return source
        if isinstance(source, Telemetry):
            return cls.from_telemetry(source, label)
        return cls.from_export_dir(source)


@dataclass
class SpanDelta:
    name: str
    self_a: float
    self_b: float

    @property
    def ratio(self) -> float:
        if self.self_a <= 0.0:
            return float("inf") if self.self_b > 0.0 else 1.0
        return self.self_b / self.self_a


@dataclass
class KindDelta:
    """Per-event-kind count change, with the hosts carrying it."""

    kind: str
    count_a: int
    count_b: int
    hosts: list  # hosts whose per-host count changed

    @property
    def ratio(self) -> float:
        if self.count_a == 0:
            return float("inf") if self.count_b else 1.0
        return self.count_b / self.count_a


@dataclass
class HostDivergence:
    """First point where one host's event streams disagree."""

    host: int | None
    first_seq: int | None  # seq of the first mismatching event, if any
    first_kind: str | None
    len_a: int
    len_b: int


@dataclass
class RunDiff:
    """The comparison ``repro diff`` renders."""

    a_label: str
    b_label: str
    threshold: float
    counter_deltas: list[tuple]  # (name, a_value, b_value)
    span_deltas: list[SpanDelta]  # significant only, largest first
    kind_deltas: list[KindDelta]  # changed event-kind counts
    divergence: dict  # host -> HostDivergence
    attributions: list[str]

    @property
    def deterministic_match(self) -> bool:
        """True when the reproducible side of both runs is identical."""
        return not self.divergence and not self.counter_deltas


def host_range_text(hosts) -> str:
    """Compact "hosts 3-5" style rendering of a host list."""
    numbered = sorted(h for h in hosts if h is not None)
    parts: list[str] = []
    if None in hosts:
        parts.append("controller")
    run_start = run_end = None
    for host in numbered:
        if run_start is None:
            run_start = run_end = host
        elif host == run_end + 1:
            run_end = host
        else:
            parts.append(_run_text(run_start, run_end))
            run_start = run_end = host
    if run_start is not None:
        parts.append(_run_text(run_start, run_end))
    return ", ".join(parts) if parts else "no hosts"


def _run_text(start: int, end: int) -> str:
    if start == end:
        return f"host {start}"
    return f"hosts {start}-{end}"


def _stream_divergence(
    events_a: list[Event], events_b: list[Event]
) -> dict:
    """Per-host first-mismatch report over :meth:`Event.identity`."""
    by_host_a: dict = {}
    by_host_b: dict = {}
    for event in events_a:
        by_host_a.setdefault(event.host, []).append(event)
    for event in events_b:
        by_host_b.setdefault(event.host, []).append(event)
    divergence: dict = {}
    for host in sorted(
        set(by_host_a) | set(by_host_b), key=lambda h: (h is None, h)
    ):
        stream_a = by_host_a.get(host, [])
        stream_b = by_host_b.get(host, [])
        first_seq = first_kind = None
        for event_a, event_b in zip(stream_a, stream_b):
            if event_a.identity() != event_b.identity():
                first_seq = event_a.seq
                first_kind = event_a.kind
                break
        else:
            if len(stream_a) == len(stream_b):
                continue  # streams agree
            tail = stream_a if len(stream_a) > len(stream_b) else stream_b
            extra = tail[min(len(stream_a), len(stream_b))]
            first_seq = extra.seq
            first_kind = extra.kind
        divergence[host] = HostDivergence(
            host=host,
            first_seq=first_seq,
            first_kind=first_kind,
            len_a=len(stream_a),
            len_b=len(stream_b),
        )
    return divergence


def _kind_counts(events: list[Event]) -> dict:
    counts: dict = {}
    for event in events:
        key = (event.kind, event.host)
        counts[key] = counts.get(key, 0) + 1
    return counts


def diff_runs(a, b, threshold: float = 0.1) -> RunDiff:
    """Compare two runs; see the module docstring for the three axes.

    *a* and *b* may each be a :class:`Telemetry`, a :class:`RunData` or
    an ``export_run`` directory path.  *threshold* is the relative span
    self-time change below which timing deltas are considered noise.
    """
    run_a = RunData.coerce(a, "A")
    run_b = RunData.coerce(b, "B")

    counter_deltas = [
        (name, run_a.counters.get(name, 0.0), run_b.counters.get(name, 0.0))
        for name in sorted(set(run_a.counters) | set(run_b.counters))
        if run_a.counters.get(name, 0.0) != run_b.counters.get(name, 0.0)
    ]

    span_deltas = []
    for name in sorted(set(run_a.spans) | set(run_b.spans)):
        self_a = run_a.spans.get(name, {}).get("self_s", 0.0)
        self_b = run_b.spans.get(name, {}).get("self_s", 0.0)
        base = max(self_a, self_b)
        if base <= 0.0 or abs(self_b - self_a) < threshold * max(
            self_a, 1e-9
        ):
            continue
        span_deltas.append(SpanDelta(name, self_a, self_b))
    span_deltas.sort(key=lambda d: (-abs(d.self_b - d.self_a), d.name))

    counts_a = _kind_counts(run_a.events)
    counts_b = _kind_counts(run_b.events)
    per_kind: dict = {}
    for kind, host in set(counts_a) | set(counts_b):
        entry = per_kind.setdefault(kind, [0, 0, []])
        count_a = counts_a.get((kind, host), 0)
        count_b = counts_b.get((kind, host), 0)
        entry[0] += count_a
        entry[1] += count_b
        if count_a != count_b:
            entry[2].append(host)
    kind_deltas = [
        KindDelta(kind=kind, count_a=entry[0], count_b=entry[1],
                  hosts=sorted(entry[2], key=lambda h: (h is None, h)))
        for kind, entry in sorted(per_kind.items())
        if entry[2]
    ]
    kind_deltas.sort(key=lambda d: (-abs(d.count_b - d.count_a), d.kind))

    divergence = _stream_divergence(run_a.events, run_b.events)
    attributions = _attribute(span_deltas, kind_deltas, threshold)
    return RunDiff(
        a_label=run_a.label,
        b_label=run_b.label,
        threshold=threshold,
        counter_deltas=counter_deltas,
        span_deltas=span_deltas,
        kind_deltas=kind_deltas,
        divergence=divergence,
        attributions=attributions,
    )


def _attribute(
    span_deltas: list[SpanDelta],
    kind_deltas: list[KindDelta],
    threshold: float,
) -> list[str]:
    """Pair each significant span delta with its likeliest driver."""
    out: list[str] = []
    for delta in span_deltas[:5]:
        grew = delta.self_b > delta.self_a
        pct = (delta.ratio - 1.0) * 100.0 if delta.ratio != float("inf") \
            else float("inf")
        text = (
            f"{delta.name} self "
            f"{'+' if grew else ''}{pct:.0f}% "
            f"({delta.self_a * 1e3:.2f}ms -> {delta.self_b * 1e3:.2f}ms)"
        )
        driver = None
        for kind in kind_deltas:
            kind_grew = kind.count_b > kind.count_a
            if kind_grew == grew and abs(kind.ratio - 1.0) >= threshold:
                driver = kind
                break
        if driver is not None:
            ratio_text = (
                f"{driver.ratio:.2f}x"
                if driver.ratio != float("inf")
                else f"0 -> {driver.count_b}"
            )
            text += (
                f", driven by {driver.kind} count {ratio_text} "
                f"on {host_range_text(driver.hosts)}"
            )
        out.append(text)
    return out
