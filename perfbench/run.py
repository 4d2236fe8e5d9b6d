"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

Everything runs in this one process (serial, no result cache, ``repro.obs``
left disabled).  A run builds the workload's operations from ``--seed`` and
repeats the whole set until ``--seconds`` have been measured (at least
twice).  With ``--trace 0`` it reports the end-to-end metrics from the
untraced sets; with ``--trace 1`` it alternates untraced and traced sets,
at least two of each, and reports the per-layer metrics of the traced ones
(see ``layers.py``).

Output check: every operation's simulated result is digested.  Repeats of
an operation within a run, traced or not, must give the same digest, and
for seeds listed in ``pins.json`` the digest must equal the pinned one.
An operation that raises or fails the check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same figures for people, plus the machine fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from digest import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

#: Fewest sets per run (traced sets with ``--trace 1``): a repeat is what
#: the same-seed check compares, and the traced figures are a median.
MIN_SETS = 2

#: Fresh interpreters timed importing the simulator, for ``setup_s``.
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter();"
    "import repro.cluster, repro.pressure, repro.sim.engine, repro.workloads.suite;"
    "print(time.perf_counter() - start)"
)

#: Paper reference values for the modelled metrics on ``matrix``
#: (EXPERIMENTS.md: Table 3 and Fig. 8).  The model is otherwise
#: unvalidated against hardware.
PAPER = {"well_aligned_rate": "Table 3: 0.66", "gemini_speedup": "Fig. 8: 1.72"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "vm_epochs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "well_aligned_rate": "ratio",
    "sim_ops_per_kcycle": "ops/kcycle",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("matrix", "steady", "fleet", "overcommit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="store this seed's digests in pins.json after a correct run")
    return parser.parse_args(argv)


def machine() -> dict[str, object]:
    """What a timing depends on: compare results only between equal ones."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One run: the operations of one workload and seed, checked and timed."""

    def __init__(self, ops: list, pins: dict[str, str] | None = None):
        self.ops = ops
        self.pins = pins or {}
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_set(self, tracer=None) -> dict:
        """Build and run every operation once; *tracer* wraps the layers."""
        clock = time.perf_counter
        times: dict[str, tuple[float, float]] = {}
        results = []
        if tracer is not None:
            import layers

            layers.install(tracer)
        try:
            for op in self.ops:
                self.attempted += 1
                # Free the previous operation's object graphs now rather
                # than in a collection inside the next timed region.
                gc.collect()
                try:
                    started = clock()
                    sim = op.build()
                    built = clock()
                    result = op.run(sim)
                    done = clock()
                except Exception:  # a failing operation is a measured outcome
                    self.failed += 1
                    self.problems.append(f"{op.key} raised:\n{traceback.format_exc()}")
                    continue
                times[op.key] = (built - started, done - built)
                results.append(result)
                value = digest(result)
                first = self.seen.setdefault(op.key, value)
                pinned = self.pins.get(op.key, value)
                if value != first or value != pinned:
                    self.failed += 1
                    self.problems.append(
                        f"{op.key}: digest {value}, first {first}, pinned {pinned}"
                    )
        finally:
            if tracer is not None:
                tracer.restore()
        return {
            "times": times,
            "wall": sum(build + run for build, run in times.values()),
            "results": results,
        }


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced set whose traced wall was *wall*."""
    import layers

    counts = tracer.counts
    metrics: dict[str, float] = {}
    for name in layers.SPANS:
        metrics[f"{name}.calls"] = tracer.calls(name)
        metrics[f"{name}.self_s"] = tracer.self_s(name)
    for name, metric in layers.COUNTED.items():
        metrics[metric] = tracer.calls(name)
    for name in ("hypervisor.touch_range.pages", "os.fault_range.pages",
                 "mem.alloc_frames.frames", "core.host_promoter.promoted"):
        metrics[name] = counts[name]
    for name in ("os.compact_region", "os.promote_with_migration"):
        calls = tracer.calls(name)
        metrics[f"{name}.success_ratio"] = counts[f"{name}.succeeded"] / calls if calls else 0.0
    places = tracer.calls("cluster.place")
    metrics["cluster.place.fail_ratio"] = counts["cluster.place.failed"] / places if places else 0.0
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            tracer.self_s(name) for name in layers.SPANS if layers.layer_of(name) == layer
        )
    metrics["sim.unattributed_s"] = wall - tracer.spans_total()
    metrics["trace.wall_s"] = wall
    return metrics


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric name (also BENCHMARK.json's list)."""
    import layers

    units: dict[str, str] = {}
    for name in layers.SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for metric in layers.COUNTED.values():
        units[metric] = "pages" if metric.endswith(".pages") else "count"
    units.update({
        "hypervisor.touch_range.pages": "pages",
        "os.fault_range.pages": "pages",
        "mem.alloc_frames.frames": "frames",
        "core.host_promoter.promoted": "count",
        "os.compact_region.success_ratio": "ratio",
        "os.promote_with_migration.success_ratio": "ratio",
        "cluster.place.fail_ratio": "ratio",
    })
    for layer in layers.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "sim.unattributed_s": "s",
        "trace.wall_s": "s",
        "trace.overhead": "ratio",
        "sim.tlb_misses": "misses",
        "sim.translation_cycles": "cycles",
        "sim.sync_mm_cycles": "cycles",
        "sim.background_cycles": "cycles",
        "cluster.migration_cycles": "cycles",
        "pressure.swap_out_pages": "pages",
        "sim.gemini_speedup": "ratio",
    })
    return units


def measure(args: argparse.Namespace, import_s: float) -> tuple[Bench, dict, list[str]]:
    """Repeat the workload's set until ``--seconds`` are measured."""
    import suite
    from tracer import Tracer

    pins = load_pins().get(args.workload, {}).get(str(args.seed))
    bench = Bench(suite.ops_for(args.workload, args.seed), pins)
    plain: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    while True:
        if args.trace and len(plain) > len(traced):
            tracer = Tracer()
            one = bench.run_set(tracer)
            one["tracer"] = tracer
            traced.append(one)
        else:
            plain.append(bench.run_set())
        spent = time.perf_counter() - started
        if len(traced if args.trace else plain) >= MIN_SETS and spent >= args.seconds:
            break

    results = plain[0]["results"]
    sim = suite.sim_metrics(results)
    lines = [f"sets: {len(plain)} untraced, {len(traced)} traced; "
             f"{len(bench.ops)} operations each"]
    if not args.trace:
        # Each operation's median over the sets, summed: a burst of host
        # noise during one operation does not move the figure.
        build = run = 0.0
        for key in bench.seen:
            build += statistics.median(one["times"][key][0] for one in plain if key in one["times"])
            run += statistics.median(one["times"][key][1] for one in plain if key in one["times"])
        wall = run
        metrics = {
            "wall_s": wall,
            "setup_s": import_s + build,
            "vm_epochs_per_s": suite.vm_epochs(results) / wall if wall else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "well_aligned_rate": sim["well_aligned_rate"],
            "sim_ops_per_kcycle": sim["sim_ops_per_kcycle"],
        }
        units = END_TO_END_UNITS
        failed_ratio = bench.failed / bench.attempted
        lines.append(f"  {'failed_ratio':<24} {failed_ratio:.4f} ratio")
        if sim["gemini_speedup"]:
            lines.append(f"  {'gemini_speedup':<24} {sim['gemini_speedup']:.4f} ratio"
                         f"  (paper {PAPER['gemini_speedup']})")
        if args.workload == "matrix":
            lines.append(f"  well_aligned_rate paper reference: {PAPER['well_aligned_rate']}")
    else:
        middle = sorted(traced, key=lambda one: one["wall"])[(len(traced) - 1) // 2]
        traced_wall = middle["wall"]
        metrics = layer_metrics(middle["tracer"], traced_wall)
        plain_wall = statistics.median(one["wall"] for one in plain)
        metrics["trace.overhead"] = traced_wall / plain_wall
        metrics.update((name, value) for name, value in sim.items() if "." in name)
        metrics["sim.gemini_speedup"] = sim["gemini_speedup"]
        reference = traced[0]["tracer"].snapshot()
        for one in traced[1:]:
            if one["tracer"].snapshot() != reference:
                bench.problems.append("traced counts differ between repeats")
        units = per_layer_units()
        metrics = {name: metrics[name] for name in units}
    report = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    for name, entry in report.items():
        lines.append(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    return bench, report, lines


def load_pins() -> dict:
    if not PINS.exists():
        return {}
    return json.loads(PINS.read_text())


def store_pins(workload: str, seed: int, digests: dict[str, str]) -> None:
    pins = load_pins()
    pins.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    ordered = {
        name: dict(sorted(seeds.items(), key=lambda item: int(item[0])))
        for name, seeds in sorted(pins.items())
    }
    PINS.write_text(json.dumps(ordered, indent=1) + "\n")


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import what the workloads
    use (interpreter start-up excluded)."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_s = 0.0 if args.trace else import_seconds()

    bench, report, lines = measure(args, import_s)
    correct = bench.failed == 0 and not bench.problems
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    for line in lines:
        print(line)
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not correct:
        print("perfbench: OUTPUT CHECK FAILED", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": report,
    }
    if args.pin and correct:
        store_pins(args.workload, args.seed, bench.seen)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
