"""Golden results for single-host paths the repository benchmark never runs.

Each case pins the exact digest of every field of every result record
(floats by ``repr``), so any change to the epoch loop that moves a single
bit of a reused-VM, pressured or collocated run fails here.  The digests
were recorded with the engine as it stood before the single-host
simulator became a driver over the fleet's host kernel; both engines must
keep producing them.
"""

import pytest

from repro.pressure import PressureConfig
from repro.sim import Simulation, SimulationConfig
from repro.workloads import make_workload
from tests.digests import digest


def _reused_vm():
    config = SimulationConfig(epochs=4, host_mib=512, guest_mib=160, seed=5)
    return Simulation(
        make_workload("Redis"),
        system="Gemini",
        config=config,
        primer=make_workload("SVM"),
    ).run()


def _pressured():
    config = SimulationConfig(
        host_mib=56,
        guest_mib=256,
        epochs=6,
        seed=11,
        pressure=PressureConfig(enabled=True),
    )
    return Simulation(make_workload("Redis"), system="Gemini", config=config).run()


def _collocated():
    config = SimulationConfig(
        epochs=4,
        host_mib=512,
        guest_mib=128,
        nodes=2,
        fragment_guest=0.5,
        fragment_host=0.5,
        seed=3,
    )
    workloads = [make_workload("Masstree"), make_workload("Shore")]
    return Simulation(workloads, system="Gemini", config=config).run()


GOLDEN = {
    "reused-vm": (_reused_vm, "c692d80ff93fb02d"),
    "pressured": (_pressured, "af601af571f049c8"),
    "collocated": (_collocated, "0db660692fa5837a"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_single_host_results_match_golden_digest(case):
    run, expected = GOLDEN[case]
    assert digest(run()) == expected
