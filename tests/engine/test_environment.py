"""Tests for the discrete-event Environment (scheduler/clock)."""

import pytest

from repro.engine import EmptySchedule, Environment


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_configurable():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(10.0)
    env.run()
    assert env.now == 10.0


def test_run_until_time_stops_exactly():
    env = Environment()
    env.timeout(100.0)
    env.run(until=40.0)
    assert env.now == 40.0


def test_run_until_past_time_raises():
    env = Environment()
    env.timeout(1.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=0.5)


def test_process_rejects_non_generator():
    env = Environment()
    with pytest.raises(ValueError):
        env.process([1, 2, 3])


def test_step_raises_on_empty_schedule():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_peek_empty_is_infinite():
    import math

    assert math.isinf(Environment().peek())


def test_events_processed_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 5.0, "b"))
    env.process(proc(env, 2.0, "a"))
    env.process(proc(env, 9.0, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_run_without_until_drains_everything():
    env = Environment()
    ticks = []

    def proc(env):
        for _ in range(5):
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(proc(env))
    env.run()
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_nested_process_start():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1.0)
        return "child-done"

    def parent(env):
        value = yield env.process(child(env))
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == ["child-done"]
