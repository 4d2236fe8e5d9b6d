"""Benchmark: ballooning interplay (Section 8 future-work extension).

Runs a workload in a VM whose balloon periodically inflates under host
memory pressure, comparing naive victim selection with Gemini's
alignment-aware rule (only mis-aligned / idle huge pages may be demoted).
"""

from conftest import write_result

from repro.hypervisor.balloon import BalloonDriver
from repro.mem.layout import PAGES_PER_HUGE
from repro.sim import Simulation, SimulationConfig
from repro.sim.results import RunResult
from repro.workloads import make_workload


def run_with_balloon(alignment_aware: bool):
    config = SimulationConfig(epochs=12, fragment_guest=0.3, fragment_host=0.3)
    sim = Simulation(make_workload("Masstree"), system="Gemini", config=config)
    vm = sim.host.tenants[0].vm
    balloon = BalloonDriver(sim.platform, vm, alignment_aware=alignment_aware)

    # Drive the run epoch by epoch, inflating/deflating between epochs.
    results = [RunResult(system="Gemini", workload="Masstree")]
    for epoch in range(config.epochs):
        sim.step(epoch, results)
        if epoch % 3 == 1:
            balloon.inflate(2 * PAGES_PER_HUGE)
        if epoch % 3 == 2:
            balloon.deflate()
    return results[0], balloon


def test_ablation_balloon(benchmark):
    def run_both():
        return run_with_balloon(True), run_with_balloon(False)

    (aware, aware_balloon), (naive, naive_balloon) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    lines = [
        "Ballooning interplay (Masstree under Gemini, periodic inflation):",
        f"  alignment-aware: thr={aware.throughput:.3e} "
        f"aligned={aware.well_aligned_rate:.0%} "
        f"aligned huge pages demoted={aware_balloon.demoted_aligned_huge_pages}",
        f"  naive:           thr={naive.throughput:.3e} "
        f"aligned={naive.well_aligned_rate:.0%} "
        f"aligned huge pages demoted={naive_balloon.demoted_aligned_huge_pages}",
    ]
    write_result("ablation_balloon", "\n".join(lines))
    # The alignment-aware rule demotes no more well-aligned huge pages
    # than the naive policy and performs at least as well.
    assert (
        aware_balloon.demoted_aligned_huge_pages
        <= naive_balloon.demoted_aligned_huge_pages
    )
    assert aware.throughput >= 0.95 * naive.throughput
