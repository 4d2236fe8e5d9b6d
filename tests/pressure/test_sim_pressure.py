"""Single-host simulations under pressure: the sim engine drives the
same ladder the cluster hosts use, so a host smaller than the workload's
footprint swaps instead of dying, and the subsystem is a strict no-op
when disabled."""

import pytest

from repro.os.mm import OutOfMemory
from repro.pressure import PressureConfig
from repro.sim import Simulation, SimulationConfig
from repro.workloads import make_workload


def small_host(enabled, host_mib=56, epochs=6, **pressure_overrides):
    pressure = PressureConfig(enabled=enabled, **pressure_overrides)
    return SimulationConfig(
        host_mib=host_mib,
        guest_mib=256,
        epochs=epochs,
        seed=11,
        pressure=pressure,
    )


def test_pressure_lets_an_undersized_host_survive():
    workload = make_workload("Redis")  # 80 MiB footprint on a 56 MiB host
    sim = Simulation(workload, system="Gemini", config=small_host(True))
    result = sim.run_single()
    assert result.throughput > 0.0
    controller = sim.host.pressure
    assert controller is not None
    assert controller.pressured_epochs > 0
    assert controller.device.pages_out > 0
    # The guest re-touches swapped pages: demand swap-ins were charged.
    assert controller.device.pages_in > 0
    vm = sim.platform.vms[min(sim.platform.vms)]
    assert vm.guest.ledger.sync["swap_in"].count > 0


def test_disabled_pressure_keeps_the_engine_untouched():
    config = small_host(False, host_mib=768)
    sim = Simulation(make_workload("Redis"), system="Gemini", config=config)
    assert sim.host.pressure is None
    result = sim.run_single()
    assert result.throughput > 0.0


def test_disabled_pressure_is_bit_identical_to_the_seed_behavior():
    # enabled=False must leave results untouched: same run, pressure
    # field present vs an explicitly-disabled config.
    workload = make_workload("Shore")
    base = SimulationConfig(epochs=4, seed=3)
    explicit = SimulationConfig(epochs=4, seed=3, pressure=PressureConfig())
    first = Simulation(workload, system="Gemini", config=base).run_single()
    second = Simulation(
        workload, system="Gemini", config=explicit
    ).run_single()
    assert first.throughput == second.throughput
    assert first.well_aligned_rate == second.well_aligned_rate
    assert first.tlb_misses == second.tlb_misses


def test_without_pressure_an_undersized_host_dies():
    sim = Simulation(
        make_workload("Redis"), system="Gemini", config=small_host(False)
    )
    with pytest.raises(OutOfMemory):
        sim.run_single()
