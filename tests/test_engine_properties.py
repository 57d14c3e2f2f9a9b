"""Property-based tests of the simulation engine.

Hypothesis generates random multi-threaded programs; the engine must
uphold its invariants for all of them: clocks never go backwards, every
operation is counted exactly once, locks are released exactly as often
as acquired, and every memory access and the memory system's end state
agree with the reference model (:mod:`repro.verify.reference`).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.machine import Machine
from repro.sched.thread_sched import ThreadScheduler
from repro.sched.work_stealing import WorkStealingScheduler
from repro.sim.engine import Simulator
from repro.threads.program import (Acquire, Compute, CtEnd, CtStart, Load,
                                   Release, Scan, Store, YieldCore)
from repro.threads.sync import SpinLock
from repro.verify.reference import compare, shadow

from tests.helpers import tiny_spec

# A step recipe: (opcode, operand) pairs interpreted by build_program.
step_strategy = st.tuples(
    st.sampled_from(["compute", "load", "store", "scan", "lock",
                     "ctop", "yield"]),
    st.integers(min_value=0, max_value=63),
)

program_strategy = st.lists(step_strategy, min_size=1, max_size=25)


def build_program(recipe, locks, objects):
    """Translate a recipe into a well-formed item generator."""
    def program():
        for opcode, operand in recipe:
            if opcode == "compute":
                yield Compute(operand + 1)
            elif opcode == "load":
                yield Load(operand * 64)
            elif opcode == "store":
                yield Store(operand * 64)
            elif opcode == "scan":
                yield Scan(operand * 64, 3 * 64)
            elif opcode == "lock":
                lock = locks[operand % len(locks)]
                yield Acquire(lock)
                yield Compute(5)
                yield Release(lock)
            elif opcode == "ctop":
                obj = objects[operand % len(objects)]
                yield CtStart(obj)
                yield Scan(obj.addr, min(obj.size, 4 * 64))
                yield CtEnd()
            else:
                yield YieldCore()
    return program()


def run_recipes(recipes, scheduler):
    from repro.core.object_table import CtObject

    machine = Machine(tiny_spec())
    shadow(machine.memory)
    sim = Simulator(machine, scheduler)
    locks = [SpinLock.allocate(machine.address_space, f"l{i}")
             for i in range(3)]
    objects = []
    for index in range(4):
        region = machine.address_space.alloc(f"po{index}", 512)
        objects.append(CtObject(f"po{index}", region.base, 512))
    for index, recipe in enumerate(recipes):
        sim.spawn(build_program(recipe, locks, objects),
                  core_id=index % machine.n_cores)
    sim.run(until=20_000_000)
    compare(machine.memory)
    return machine, sim, locks


@settings(max_examples=25, deadline=None)
@given(recipes=st.lists(program_strategy, min_size=1, max_size=6))
def test_random_programs_complete_cleanly(recipes):
    machine, sim, locks = run_recipes(recipes, ThreadScheduler())
    # Everything ran to completion within the generous horizon.
    assert all(thread.done for thread in sim.threads)
    # Locks all released.
    assert all(not lock.held for lock in locks)
    # Exactly the ct-ops in the recipes were counted.
    expected_ops = sum(1 for recipe in recipes
                       for opcode, _ in recipe if opcode == "ctop")
    assert sim.total_ops == expected_ops
    # Clocks are non-negative and counters sane.
    for core in machine.cores:
        assert core.time >= 0
        assert core.counters.busy_cycles >= 0


@settings(max_examples=15, deadline=None)
@given(recipes=st.lists(program_strategy, min_size=2, max_size=6))
def test_random_programs_deterministic(recipes):
    _, sim_a, _ = run_recipes(recipes, ThreadScheduler())
    _, sim_b, _ = run_recipes(recipes, ThreadScheduler())
    assert sim_a.total_ops == sim_b.total_ops
    assert sim_a.total_steps == sim_b.total_steps
    finish_a = sorted(t.finished_at for t in sim_a.threads)
    finish_b = sorted(t.finished_at for t in sim_b.threads)
    assert finish_a == finish_b


@settings(max_examples=15, deadline=None)
@given(recipes=st.lists(program_strategy, min_size=2, max_size=8))
def test_work_stealing_preserves_semantics(recipes):
    """Stealing changes placement, never correctness."""
    machine, sim, locks = run_recipes(recipes, WorkStealingScheduler())
    assert all(thread.done for thread in sim.threads)
    assert all(not lock.held for lock in locks)
