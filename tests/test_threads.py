"""Tests for repro.threads (threads, run queues, locks, program items)."""

import pytest

from repro.errors import SimulationError
from repro.mem.layout import AddressSpace
from repro.threads.program import (Acquire, Compute, CtEnd, CtStart, Load,
                                   Release, Scan, Store, op_items)
from repro.threads.runqueue import RunQueue
from repro.threads.sync import SpinLock
from repro.threads.thread import SimThread, ThreadState


def dummy_program():
    yield Compute(10)


class TestSimThread:
    def test_initial_state(self):
        thread = SimThread(dummy_program(), "t")
        assert thread.state is ThreadState.READY
        assert thread.name == "t"
        assert not thread.in_operation

    def test_auto_names_are_unique(self):
        a = SimThread(dummy_program())
        b = SimThread(dummy_program())
        assert a.name != b.name
        assert a.tid != b.tid

    def test_advance_yields_items(self):
        thread = SimThread(dummy_program())
        item = thread.advance()
        assert isinstance(item, Compute)
        with pytest.raises(StopIteration):
            thread.advance()

    def test_advance_after_done_is_error(self):
        thread = SimThread(dummy_program())
        thread.state = ThreadState.DONE
        with pytest.raises(SimulationError):
            thread.advance()

    def test_operation_bracketing(self):
        thread = SimThread(dummy_program())
        thread.begin_operation("obj", 0, None, 5)
        assert thread.in_operation
        assert thread.end_operation() == "obj"
        assert thread.ops_completed == 1
        assert not thread.in_operation

    def test_ran_on_needs_entry_core_and_no_migration(self):
        thread = SimThread(dummy_program())
        assert not thread.ran_on(0)
        thread.begin_operation("obj", 2, None, 0)
        assert thread.ran_on(2)
        assert not thread.ran_on(0)
        # Away and back: the same core, but not the same run.
        thread.migrations += 2
        assert not thread.ran_on(2)

    def test_nested_operation_rejected(self):
        thread = SimThread(dummy_program())
        thread.begin_operation("a", 0, None, 0)
        with pytest.raises(SimulationError):
            thread.begin_operation("b", 0, None, 0)

    def test_end_without_start_rejected(self):
        thread = SimThread(dummy_program())
        with pytest.raises(SimulationError):
            thread.end_operation()


class TestRunQueue:
    def test_fifo_order(self):
        queue = RunQueue(0)
        a, b = SimThread(dummy_program()), SimThread(dummy_program())
        queue.push(a)
        queue.push(b)
        assert queue.pop() is a
        assert queue.pop() is b
        assert queue.pop() is None

    def test_push_sets_core_and_state(self):
        queue = RunQueue(3)
        thread = SimThread(dummy_program())
        thread.state = ThreadState.MIGRATING
        queue.push(thread)
        assert thread.core == 3
        assert thread.state is ThreadState.READY

    def test_push_front(self):
        queue = RunQueue(0)
        a, b = SimThread(dummy_program()), SimThread(dummy_program())
        queue.push(a)
        queue.push_front(b)
        assert queue.pop() is b

    def test_steal_takes_oldest(self):
        queue = RunQueue(0)
        a, b = SimThread(dummy_program()), SimThread(dummy_program())
        queue.push(a)
        queue.push(b)
        assert queue.steal() is a

    def test_remove(self):
        queue = RunQueue(0)
        a = SimThread(dummy_program())
        queue.push(a)
        assert queue.remove(a)
        assert not queue.remove(a)

    def test_depth_statistics(self):
        queue = RunQueue(0)
        for _ in range(3):
            queue.push(SimThread(dummy_program()))
        assert queue.max_depth == 3
        assert queue.enqueues == 3


class TestSpinLock:
    def test_allocate_gets_own_line(self):
        space = AddressSpace(line_size=64)
        lock_a = SpinLock.allocate(space, "a")
        lock_b = SpinLock.allocate(space, "b")
        assert lock_a.addr // 64 != lock_b.addr // 64

    def test_acquire_release(self):
        lock = SpinLock("l", 0)
        thread = SimThread(dummy_program())
        assert lock.try_acquire(thread)
        assert lock.held
        lock.release(thread)
        assert not lock.held

    def test_contended_acquire_fails(self):
        lock = SpinLock("l", 0)
        a, b = SimThread(dummy_program()), SimThread(dummy_program())
        assert lock.try_acquire(a)
        assert not lock.try_acquire(b)
        assert lock.spin_attempts == 1

    def test_reacquire_by_owner_is_bug(self):
        lock = SpinLock("l", 0)
        thread = SimThread(dummy_program())
        lock.try_acquire(thread)
        with pytest.raises(SimulationError):
            lock.try_acquire(thread)

    def test_release_by_non_owner_is_bug(self):
        lock = SpinLock("l", 0)
        a, b = SimThread(dummy_program()), SimThread(dummy_program())
        lock.try_acquire(a)
        with pytest.raises(SimulationError):
            lock.release(b)

    def test_release_unheld_is_bug(self):
        lock = SpinLock("l", 0)
        with pytest.raises(SimulationError):
            lock.release(SimThread(dummy_program()))


class TestOpItems:
    def test_canonical_sequence(self):
        lock = SpinLock("l", 0)
        items = list(op_items("obj", lock, 100, 256, per_line_compute=2))
        kinds = [type(item) for item in items]
        assert kinds == [CtStart, Acquire, Scan, Release, CtEnd]
        scan = items[2]
        assert scan.addr == 100 and scan.nbytes == 256

    def test_lockless_sequence(self):
        items = list(op_items("obj", None, 0, 64))
        kinds = [type(item) for item in items]
        assert kinds == [CtStart, Scan, CtEnd]

    def test_item_reprs(self):
        # Smoke-test every item's repr (used in error messages).
        lock = SpinLock("l", 0)
        for item in (Compute(5), Load(1), Store(2), Scan(0, 64),
                     Acquire(lock), Release(lock), CtStart("o"), CtEnd()):
            assert repr(item)
