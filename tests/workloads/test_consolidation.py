"""Unit tests for multi-VM consolidation workloads."""

import pytest

from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.workloads.consolidation import (ConsolidatedWorkload,
                                           build_consolidation)


class TestBuildConsolidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_consolidation([])

    def test_rejects_bad_core_count(self):
        with pytest.raises(ValueError):
            build_consolidation(["gcc"], cores_per_vm=0)

    def test_vm_and_core_assignment(self):
        wl = build_consolidation(["gcc", "canneal"], cores_per_vm=2,
                                 refs_per_core=100, scale=0.03)
        assert [a.vm_id for a in wl.assignments] == [1, 2]
        assert wl.assignments[0].cores == (0, 1)
        assert wl.assignments[1].cores == (2, 3)
        assert {s.vm_id for s in wl.streams} == {1, 2}
        assert {s.core for s in wl.streams} == {0, 1, 2, 3}

    def test_thp_fraction_lookup(self):
        wl = build_consolidation(["gcc"], refs_per_core=50, scale=0.03)
        assert wl.thp_fractions() == {1: pytest.approx(0.29)}

    def test_references_total(self):
        wl = build_consolidation(["gcc", "gups"], refs_per_core=100,
                                 scale=0.03)
        assert wl.references == sum(len(s) for s in wl.streams)

    def test_duplicate_vm_id_raises(self):
        # __post_init__ must refuse: a silent duplicate would let one
        # VM's THP policy shadow another's.
        wl = build_consolidation(["gcc"], refs_per_core=50, scale=0.03)
        with pytest.raises(ValueError, match="duplicate vm_id 1"):
            ConsolidatedWorkload(
                assignments=wl.assignments + [wl.assignments[0]],
                streams=wl.streams,
                warmup_references=wl.warmup_references)

    def test_thp_fractions_mapping(self):
        wl = build_consolidation(["gcc", "gups"], refs_per_core=50,
                                 scale=0.03)
        fractions = wl.thp_fractions()
        assert set(fractions) == {1, 2}
        assert fractions[1] == pytest.approx(0.29)


class TestConsolidatedSimulation:
    def test_runs_on_machine_with_per_vm_thp(self):
        wl = build_consolidation(["gcc", "streamcluster"], cores_per_vm=1,
                                 refs_per_core=300, scale=0.05, seed=4)
        thp = {a.vm_id: a.profile.thp_large_fraction for a in wl.assignments}
        machine = Machine(SystemConfig(num_cores=2), scheme="pom",
                          thp_fractions=thp, seed=4)
        result = machine.run(wl.streams,
                             warmup_references=wl.warmup_references)
        assert result.references > 0
        # Two VMs exist and each allocated pages.
        assert set(machine.host.vms) == {1, 2}
        for vm in machine.host.vms.values():
            assert vm.processes

    def test_vm_isolation_in_pom(self):
        wl = build_consolidation(["gcc", "gcc"], cores_per_vm=1,
                                 refs_per_core=200, scale=0.03, seed=4)
        machine = Machine(SystemConfig(num_cores=2), scheme="pom", seed=4)
        machine.run(wl.streams, warmup_references=wl.warmup_references)
        # Same benchmark in two VMs: every page walked twice (no
        # cross-VM translation sharing).
        footprints = [sum(p.footprint_bytes for p in vm.processes.values())
                      for vm in machine.host.vms.values()]
        assert footprints[0] > 0 and footprints[0] == footprints[1]
