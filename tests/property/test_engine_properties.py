"""Property-based tests for the discrete-event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Environment

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=60,
)


@given(delays=delays)
@settings(max_examples=100, deadline=None)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(delays=delays)
@settings(max_examples=100, deadline=None)
def test_equal_delays_preserve_creation_order(delays):
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    constant = delays[0]
    for tag in range(len(delays)):
        env.process(waiter(env, constant, tag))
    env.run()
    assert order == list(range(len(delays)))


@given(
    delays=delays,
    stop_fraction=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=60, deadline=None)
def test_run_until_never_overshoots(delays, stop_fraction):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    horizon = max(delays) * stop_fraction
    if horizon <= 0:
        return
    env.run(until=horizon)
    assert env.now == horizon
    assert all(t <= horizon for t in fired)
    # Finishing the run delivers the rest.
    env.run()
    assert len(fired) == len(delays)


@given(
    chain=st.lists(
        st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=40
    )
)
@settings(max_examples=60, deadline=None)
def test_sequential_timeouts_accumulate_exactly(chain):
    env = Environment()

    def runner(env):
        for delay in chain:
            yield env.timeout(delay)
        return env.now

    process = env.process(runner(env))
    env.run()
    result = process.value
    assert result == env.now
    # Accumulation matches a float sum of the same order.
    expected = 0.0
    for delay in chain:
        expected += delay
    assert result == expected
