"""Each invariant checker must catch its planted violation.

Every test class plants the exact inconsistency its checker exists to
detect — the state each fixed defect used to leave behind (or would
leave behind if reintroduced) — and asserts the checker raises
:class:`VerificationError`; a clean machine must pass the same check.
"""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import VerificationError
from repro.core.system import Machine
from repro.obs import EventTracer, ListSink, Observability
from repro.tlb.entry import TlbEntry, pack_key
from repro.verify import (ConservationChecker, InclusionChecker, LruChecker,
                          SetAddressChecker, StaleLineChecker, Verifier)
from repro.workloads.suite import get_profile


def make_machine(scheme, cores=2, **kwargs):
    return Machine(SystemConfig(num_cores=cores), scheme=scheme, seed=3,
                   **kwargs)


def run_some(machine, vm=0, asid=1, n=64):
    for i in range(n):
        va = 0x10000 + i * 0x1000
        page = machine.touch(vm, asid, va)
        machine.scheme.translate(0, vm, asid, va, page)


def plant_private(scheme_obj, vm=0, asid=1, va=0x3000):
    key_small = pack_key(vm, asid, va >> 12, False)
    key_large = pack_key(vm, asid, va >> 21, True)
    for tlbs in scheme_obj.cores:
        tlbs.l1_small.insert(key_small, TlbEntry(1))
        tlbs.l1_large.insert(key_large, TlbEntry(1))
        tlbs.l2.insert(key_small, TlbEntry(1))
        tlbs.l2.insert(key_large, TlbEntry(1))


class TestInclusionChecker:

    def test_clean_shootdown_passes(self):
        machine = make_machine("pom")
        checker = InclusionChecker()
        plant_private(machine.scheme)
        machine.scheme.shootdown(0, 1, 0x3000, False)
        checker.check_shootdown(machine, 0, 1, 0x3000, None)

    def test_skipped_front_end_drop_is_caught(self):
        # The shootdown size-asymmetry bug left exactly this state: a
        # private entry surviving an invalidation that should be global.
        machine = make_machine("pom")
        checker = InclusionChecker()
        plant_private(machine.scheme)
        with pytest.raises(VerificationError, match="inclusion"):
            checker.check_shootdown(machine, 0, 1, 0x3000, None)

    def test_backend_leftover_after_vm_teardown_is_caught(self):
        machine = make_machine("pom")
        checker = InclusionChecker()
        run_some(machine)
        # Drop only the private SRAM copies; the POM-TLB keeps VM 0.
        for tlbs in machine.scheme.cores:
            for tlb in (tlbs.l1_small, tlbs.l1_large, tlbs.l2):
                tlb.invalidate_vm(0)
        with pytest.raises(VerificationError, match="backend still holds"):
            checker.check_invalidate_vm(machine, 0, None)

    def test_clean_vm_teardown_passes(self):
        machine = make_machine("pom")
        checker = InclusionChecker()
        run_some(machine)
        machine.scheme.invalidate_vm(0)
        checker.check_invalidate_vm(machine, 0, None)


class TestStaleLineChecker:

    @pytest.mark.parametrize("scheme", ["pom", "pom_skewed"])
    def test_uninvalidated_cached_lines_are_caught(self, scheme):
        # The invalidate_vm staleness bug: backing entries dropped, but
        # the L2D$/L3D$ copies of their lines kept serving dead sets.
        machine = make_machine(scheme)
        checker = StaleLineChecker()
        run_some(machine)
        token = checker.token_invalidate_vm(machine, 0)
        assert token, "expected resident VM-0 backing lines"
        machine.scheme.pom.invalidate_vm(0)  # no cache invalidation
        with pytest.raises(VerificationError, match="still serves"):
            checker.check_invalidate_vm(machine, 0, token)

    @pytest.mark.parametrize("scheme", ["pom", "pom_skewed", "tsb"])
    def test_full_invalidation_passes(self, scheme):
        machine = make_machine(scheme)
        checker = StaleLineChecker()
        run_some(machine)
        token = checker.token_invalidate_vm(machine, 0)
        machine.invalidate_vm(0)
        checker.check_invalidate_vm(machine, 0, token)
        checker.check_final(machine, None)

    def test_final_rejects_tlb_lines_on_sram_only_scheme(self):
        machine = make_machine("baseline")
        checker = StaleLineChecker()
        run_some(machine)
        checker.check_final(machine, None)  # clean: no TLB-kind lines
        pom_machine = make_machine("pom")
        run_some(pom_machine)
        assert pom_machine.hierarchy.tlb_lines(), "expected cached lines"
        checker.check_final(pom_machine, None)  # all inside POM range


class TestSetAddressChecker:

    def test_resident_entries_pass(self):
        machine = make_machine("pom")
        run_some(machine)
        SetAddressChecker().check_final(machine, None)

    def test_misplaced_pom_entry_is_caught(self):
        machine = make_machine("pom")
        run_some(machine)
        pom = machine.scheme.pom
        sets = pom._sets[False]
        index, entries = next(iter(sets.items()))
        key, entry = next(iter(entries.items()))
        del entries[key]
        wrong = (index + 1) & pom._small_mask
        sets.setdefault(wrong, {})[key] = entry
        with pytest.raises(VerificationError, match="set-address"):
            SetAddressChecker().check_final(machine, None)

    def test_misplaced_skewed_entry_is_caught(self):
        machine = make_machine("pom_skewed")
        run_some(machine)
        pom = machine.scheme.pom
        pos, resident = next(iter(pom._slots.items()))
        del pom._slots[pos]
        pom._slots[pos ^ 1] = resident  # the neighbouring slot, same way
        with pytest.raises(VerificationError, match="way hash"):
            SetAddressChecker().check_final(machine, None)


class TestLruChecker:

    def test_wellformed_machine_passes(self):
        machine = make_machine("pom")
        run_some(machine)
        LruChecker().check_final(machine, None)

    def test_overfull_sram_set_is_caught(self):
        machine = make_machine("baseline")
        tlb = machine.scheme.cores[0].l1_small
        for i in range(tlb._ways + 1):
            tlb._sets[0][pack_key(0, 1, i * tlb._num_sets, False)] = \
                TlbEntry(1)
        with pytest.raises(VerificationError, match="lru-wellformed"):
            LruChecker().check_final(machine, None)

    def test_overfull_pom_set_is_caught(self):
        machine = make_machine("pom")
        pom = machine.scheme.pom
        overfull = pom._sets[False].setdefault(0, {})
        for i in range(pom._ways + 1):
            overfull[pack_key(0, 1, i, False)] = TlbEntry(1)
        with pytest.raises(VerificationError, match="holds"):
            LruChecker().check_final(machine, None)


class TestConservationChecker:

    def _run_verified(self, scheme):
        checker = ConservationChecker()
        verifier = Verifier([checker])
        profile = get_profile("gups")
        workload = profile.build(num_cores=2, refs_per_core=400,
                                 seed=7, scale=0.05)
        machine = Machine(SystemConfig(num_cores=2), scheme=scheme,
                          thp_large_fraction=profile.thp_large_fraction,
                          seed=7, verify=verifier)
        result = machine.run(workload.streams)
        return machine, checker, verifier, result

    @pytest.mark.parametrize("scheme",
                             ["baseline", "pom", "shared_l2", "tsb"])
    def test_balanced_run_passes(self, scheme):
        # machine.run already called verifier.finish without raising.
        machine, checker, _verifier, result = self._run_verified(scheme)
        assert result.references == checker.references

    def test_tampered_counter_is_caught(self):
        machine, checker, verifier, result = self._run_verified("pom")
        checker.references += 1
        with pytest.raises(VerificationError, match="stat-conservation"):
            verifier.finish(machine, result)


class TestVerifier:

    def test_for_names_selects_subset(self):
        verifier = Verifier.for_names(["inclusion", "lru-wellformed"])
        assert [type(c) for c in verifier.checkers] == \
            [InclusionChecker, LruChecker]

    def test_for_names_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown invariant"):
            Verifier.for_names(["no-such-invariant"])

    def test_violation_emits_trace_event(self):
        sink = ListSink()
        obs = Observability(tracer=EventTracer([sink], sample=1))
        machine = make_machine("baseline", obs=obs,
                               verify=Verifier.for_names(["lru-wellformed"]))
        tlb = machine.scheme.cores[0].l1_small
        for i in range(tlb._ways + 1):
            tlb._sets[0][pack_key(0, 1, i * tlb._num_sets, False)] = \
                TlbEntry(1)
        with pytest.raises(VerificationError):
            machine.verifier.finish(machine, None)
        violations = [e for e in sink.events
                      if e.get("type") == "verify_violation"]
        assert violations and \
            violations[0]["invariant"] == "lru-wellformed"
