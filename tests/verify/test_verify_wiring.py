"""Verification wiring: runner flag, result identity, CLI contract."""

import pytest

from repro.cli import main
from repro.experiments.runner import (EXECUTION_FIELDS, ExperimentParams,
                                      simulate_run)

_COUNTERS = ("references", "instructions", "l2_tlb_misses", "penalty_cycles",
             "translation_cycles", "data_cycles", "page_walks")

PARAMS = ExperimentParams(num_cores=2, refs_per_core=500, scale=0.05, seed=7)


class TestRunnerWiring:

    @pytest.mark.parametrize("scheme", ["baseline", "pom", "tsb"])
    def test_verified_run_is_bit_identical(self, scheme):
        plain = simulate_run("gups", scheme, PARAMS)
        import dataclasses
        verified = simulate_run(
            "gups", scheme, dataclasses.replace(PARAMS, verify=True))
        for name in _COUNTERS:
            assert getattr(verified.result, name) == \
                getattr(plain.result, name), name
        assert verified.performance.speedup == plain.performance.speedup

    def test_verify_is_an_execution_field(self):
        # Toggling verification must not invalidate campaign checkpoints.
        assert "verify" in EXECUTION_FIELDS
        import dataclasses
        assert dataclasses.replace(PARAMS, verify=True).checkpoint_fields() \
            == PARAMS.checkpoint_fields()


class TestAuditCli:

    def test_audit_ok(self, capsys):
        code = main(["audit", "--benchmarks", "gcc",
                     "--schemes", "baseline,pom", "--cores", "1",
                     "--refs", "300", "--scale", "0.02", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "audit gcc: OK (2 scheme(s))" in out

    def test_audit_invariant_subset(self, capsys):
        code = main(["audit", "--benchmarks", "gcc", "--schemes", "pom",
                     "--invariants", "set-address,lru-wellformed",
                     "--cores", "1", "--refs", "300", "--scale", "0.02"])
        assert code == 0
        assert "audit gcc: OK" in capsys.readouterr().out

    def test_audit_rejects_unknown_benchmark(self, capsys):
        assert main(["audit", "--benchmarks", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_audit_rejects_unknown_scheme(self, capsys):
        assert main(["audit", "--schemes", "nope"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_audit_rejects_unknown_invariant(self, capsys):
        assert main(["audit", "--invariants", "nope"]) == 2
        assert "unknown invariant" in capsys.readouterr().err

    def test_verify_flag_on_experiment(self, capsys):
        code = main(["fig8", "--benchmarks", "gcc", "--cores", "1",
                     "--refs", "200", "--scale", "0.02", "--verify"])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out
