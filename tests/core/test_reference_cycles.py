"""A dropped Machine is freed by reference counting alone.

Components must not point back at their owner (a bound method handed to
a child is such a pointer): every cycle through a Machine or a VM keeps
its caches, page tables and stats alive until a full garbage collection.
"""

import gc

import pytest

from repro.common import addr
from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.workloads.trace import CoreStream, MemoryReference

SCHEMES = ("baseline", "pom", "pom_skewed", "shared_l2", "tsb")


def stream(core, vm, pages=40):
    refs = [MemoryReference(10 * (i + 1), (i % pages) * addr.SMALL_PAGE_SIZE,
                            i % 3 == 0)
            for i in range(3 * pages)]
    return CoreStream(core=core, vm_id=vm, asid=1, references=refs)


def build_and_run(scheme, virtualized):
    machine = Machine(SystemConfig(num_cores=2, virtualized=virtualized),
                      scheme=scheme, thp_large_fraction=0.3, seed=7)
    machine.run([stream(0, vm=1), stream(1, vm=2)])
    if virtualized:
        machine.destroy_vm(1)
    return machine


@pytest.mark.parametrize("virtualized", [True, False])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_dropped_machine_leaves_no_cyclic_garbage(scheme, virtualized):
    build_and_run(scheme, virtualized)  # warm lazy imports and caches
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        machine = build_and_run(scheme, virtualized)
        del machine
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
