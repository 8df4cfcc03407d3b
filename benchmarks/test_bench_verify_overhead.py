"""Perf guard: consistency auditing must stay cheap in the hot loop.

The verify tentpole adds one hoisted ``if verifier_active`` check per
translation to the engine's hot loops.  This benchmark holds the
subsystem to two promises:

* **disabled is free** — a default Machine (:data:`NO_VERIFIER`) runs
  within 5% of itself with the hook sites exercised by an *armed but
  empty* verifier, so the dispatch machinery costs nothing measurable;
* **armed accounting is cheap** — the default checker set (whose only
  hot-path member is the stat-conservation accumulator; the rest are
  event-driven or end-of-run) stays within the same 5% budget, so
  ``--verify`` campaigns remain practical.

A small absolute slack absorbs timer noise on short runs.
"""

from time import perf_counter

from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.verify import Verifier
from repro.workloads.suite import get_profile

_ROUNDS = 5
_SLACK_SECONDS = 0.05


def _make_run(verify_builder):
    profile = get_profile("gups")
    workload = profile.build(num_cores=2, refs_per_core=3000,
                             seed=7, scale=0.2)

    def run():
        machine = Machine(SystemConfig(num_cores=2), scheme="pom",
                          thp_large_fraction=profile.thp_large_fraction,
                          seed=7, verify=verify_builder())
        machine.run(workload.streams)

    return run


def _best_of(fn, rounds=_ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best


def test_bench_verify_overhead(benchmark):
    disabled_run = _make_run(lambda: None)  # NO_VERIFIER
    empty_run = _make_run(lambda: Verifier([]))
    armed_run = _make_run(Verifier)

    disabled_run()  # shared warm-up: imports, allocator, branch caches
    empty_run()
    armed_run()

    disabled = _best_of(disabled_run)
    empty = _best_of(empty_run)
    armed = benchmark.pedantic(lambda: _best_of(armed_run),
                               rounds=1, iterations=1)
    empty_overhead = empty / disabled - 1.0
    armed_overhead = armed / disabled - 1.0
    print(f"\ndisabled {disabled:.3f}s, armed-empty {empty:.3f}s "
          f"({100 * empty_overhead:+.1f}%), armed {armed:.3f}s "
          f"({100 * armed_overhead:+.1f}%)")
    assert empty <= disabled * 1.05 + _SLACK_SECONDS, (
        f"armed-but-empty verifier costs {100 * empty_overhead:.1f}% "
        f"(budget 5%): the hook dispatch itself regressed")
    assert armed <= disabled * 1.05 + _SLACK_SECONDS, (
        f"default checker set costs {100 * armed_overhead:.1f}% "
        f"(budget 5%)")
