"""Tests for Event and Timeout."""

import pytest

from repro.engine import Environment


def test_event_starts_untriggered():
    env = Environment()
    event = env.event()
    assert not event.triggered
    assert not event.processed


def test_value_unavailable_before_trigger():
    env = Environment()
    event = env.event()
    with pytest.raises(AttributeError):
        _ = event.value
    with pytest.raises(AttributeError):
        _ = event.ok


def test_succeed_sets_value_and_ok():
    env = Environment()
    event = env.event().succeed("payload")
    assert event.triggered
    assert event.ok
    assert event.value == "payload"


def test_double_succeed_raises():
    env = Environment()
    event = env.event().succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_negative_timeout_raises():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_value_passthrough():
    env = Environment()
    captured = []

    def proc(env):
        value = yield env.timeout(1.0, value="tick")
        captured.append(value)

    env.process(proc(env))
    env.run()
    assert captured == ["tick"]


def test_callbacks_fire_on_processing():
    env = Environment()
    seen = []
    event = env.timeout(1.0)
    event.callbacks.append(lambda e: seen.append(e))
    env.run()
    assert seen == [event]
    assert event.processed
