"""Tests for generator-based processes."""

import pytest

from repro.engine import Environment


def test_process_return_value_is_event_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 99

    process = env.process(proc(env))
    env.run()
    assert process.value == 99


def test_process_exception_propagates_if_unhandled():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise KeyError("broken")

    env.process(bad(env))
    with pytest.raises(KeyError):
        env.run()


def test_waiting_process_receives_failure():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child died")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child died"]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(TypeError):
        env.run()


def test_immediately_returning_process():
    env = Environment()

    def instant(env):
        return 7
        yield  # pragma: no cover - makes it a generator

    process = env.process(instant(env))
    env.run()
    assert process.value == 7
