"""Tests for the scheduler registry (repro.sched.registry)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.sched import registry
from repro.sched.thread_sched import ThreadScheduler


@pytest.fixture
def scratch_registry():
    """Snapshot/restore module state so registrations don't leak."""
    registry._ensure_builtins()
    snapshot = dict(registry._REGISTRY)
    yield registry
    registry._REGISTRY.clear()
    registry._REGISTRY.update(snapshot)


class TestBuiltins:
    def test_names_are_sorted_and_complete(self):
        names = registry.names()
        assert list(names) == sorted(names)
        for expected in ("thread", "work-stealing", "coretime",
                         "coretime-norebalance", "thread-clustering",
                         "cache-sharing", "rr", "cfs", "sjf", "mlfq"):
            assert expected in names

    def test_resolve_returns_zero_arg_factory(self):
        factory = registry.resolve("cfs")
        scheduler = factory()
        assert scheduler.name == "cfs"
        assert factory() is not scheduler

    def test_create_builds_an_instance(self):
        assert registry.create("thread").name == "thread"

    def test_entry_metadata(self):
        assert registry.entry("coretime").family == "object"
        assert registry.entry("rr").family == "timeshare"
        assert registry.entry("thread").family == "thread"
        assert registry.entry("coretime").summary

    def test_config_variant_is_excluded_from_fuzzing(self):
        # coretime-norebalance is an ablation knob on coretime, not a
        # distinct policy — fuzzing it would double-count coretime.
        fuzzable = registry.fuzzable_names()
        assert "coretime-norebalance" not in fuzzable
        assert "coretime" in fuzzable


class TestRegistration:
    def test_register_and_resolve(self, scratch_registry):
        registry.register("custom", ThreadScheduler,
                          summary="test-only", family="thread")
        assert "custom" in registry.names()
        assert registry.create("custom").name == "thread"

    def test_duplicate_rejected(self, scratch_registry):
        with pytest.raises(ConfigError, match="already registered"):
            registry.register("thread", ThreadScheduler,
                              summary="dup", family="thread")

    def test_replace_allows_override(self, scratch_registry):
        registry.register("thread", ThreadScheduler,
                          summary="override", family="thread",
                          replace=True)
        assert registry.entry("thread").summary == "override"

    def test_user_registration_survives_builtin_population(
            self, scratch_registry):
        registry.register("thread", ThreadScheduler,
                          summary="mine now", family="thread",
                          replace=True)
        registry._builtins_registered = False
        names = registry.names()  # re-populates built-ins
        # Built-ins skip taken names: the user's entry stays.
        assert registry.entry("thread").summary == "mine now"
        assert "coretime" in names

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigError):
            registry.register("", ThreadScheduler, summary="x",
                              family="thread")
        with pytest.raises(ConfigError):
            registry.register("notcallable", "nope",  # type: ignore
                              summary="x", family="thread")


class TestUnknownScheduler:
    def test_error_lists_every_registered_name(self):
        with pytest.raises(ConfigError) as excinfo:
            registry.entry("no-such-policy")
        message = str(excinfo.value)
        for name in registry.names():
            assert name in message

    def test_sweep_runner_resolves_via_registry(self):
        from repro.bench.harness import scheduler_factory
        assert scheduler_factory("mlfq")().name == "mlfq"
        with pytest.raises(ConfigError) as excinfo:
            scheduler_factory("no-such-policy")
        message = str(excinfo.value)
        for name in registry.names():
            assert name in message
