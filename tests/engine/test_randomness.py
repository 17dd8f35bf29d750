"""Tests for seeded random substreams."""

import numpy as np

from repro.engine import RandomStreams


def test_same_seed_same_draws():
    a = RandomStreams(42).stream("station", 0)
    b = RandomStreams(42).stream("station", 0)
    assert list(a.integers(0, 100, size=10)) == list(
        b.integers(0, 100, size=10)
    )


def test_different_keys_independent():
    streams = RandomStreams(42)
    a = list(streams.stream("station", 0).integers(0, 1000, size=20))
    b = list(streams.stream("station", 1).integers(0, 1000, size=20))
    assert a != b


def test_key_order_does_not_matter():
    s1 = RandomStreams(7)
    s1.stream("x")  # create another stream first
    first = list(s1.stream("station", 3).integers(0, 1000, size=5))
    s2 = RandomStreams(7)
    second = list(s2.stream("station", 3).integers(0, 1000, size=5))
    assert first == second


def test_stream_is_cached():
    streams = RandomStreams(1)
    assert streams.stream("a") is streams.stream("a")


def test_string_and_int_keys_mix():
    streams = RandomStreams(5)
    rng = streams.stream("backoff", "02:00:00:00:00:01", 1)
    assert isinstance(rng, np.random.Generator)


def test_spawn_is_independent_and_deterministic():
    parent = RandomStreams(9)
    child_a = parent.spawn("rep", 0)
    child_b = parent.spawn("rep", 1)
    again = RandomStreams(9).spawn("rep", 0)
    draws_a = list(child_a.stream("s").integers(0, 10**6, size=8))
    draws_b = list(child_b.stream("s").integers(0, 10**6, size=8))
    draws_again = list(again.stream("s").integers(0, 10**6, size=8))
    assert draws_a == draws_again
    assert draws_a != draws_b


def test_spawn_differs_from_parent_stream():
    parent = RandomStreams(9)
    direct = list(parent.stream("rep", 0).integers(0, 10**6, size=8))
    spawned = list(
        parent.spawn("rep", 0).stream("rep", 0).integers(0, 10**6, size=8)
    )
    assert direct != spawned


def test_clone_is_equivalent_but_independent():
    original = RandomStreams(13)
    consumed = list(original.stream("station", 0).integers(0, 10**6, size=5))
    clone = original.clone()
    # The clone re-derives the same substreams from scratch...
    assert list(
        clone.stream("station", 0).integers(0, 10**6, size=5)
    ) == consumed
    # ...without sharing generator state with the original: the
    # original's stream has advanced past those draws, the clone's is
    # a distinct object.
    assert clone.stream("station", 0) is not original.stream("station", 0)
    fresh = RandomStreams(13)
    assert list(
        original.stream("station", 0).integers(0, 10**6, size=5)
    ) != list(fresh.stream("station", 0).integers(0, 10**6, size=5))


def test_clone_preserves_seed_attribute():
    assert RandomStreams(21).clone().seed == 21


def test_one_stream_per_point_rep_station():
    """The runner's seeding hands every (point, rep, station) its own
    stream: same triple -> same draws, any differing coordinate ->
    different draws."""
    from repro.runner import SeedSpec, streams_for

    def first_draws(point, rep, station):
        streams = streams_for(
            SeedSpec(root_seed=3, point_index=point, repetition=rep)
        )
        return tuple(
            streams.stream("station", station).integers(0, 10**9, size=4)
        )

    grid = [
        (p, r, s) for p in (0, 1) for r in (0, 1) for s in (0, 1)
    ]
    draws = {key: first_draws(*key) for key in grid}
    # Deterministic per triple.
    for key in grid:
        assert first_draws(*key) == draws[key]
    # Pairwise distinct across the grid.
    assert len(set(draws.values())) == len(grid)


def test_repeated_scenario_reps_are_reseeded():
    """Reusing one scenario config across repetitions must not repeat
    draws: ``simulate`` spawns a fresh per-rep tree."""
    from repro.core import ScenarioConfig
    from repro.core.simulator import simulate

    scenario = ScenarioConfig.homogeneous(3, sim_time_us=5e4, seed=2)
    runs = simulate(scenario, repetitions=3)
    counters = [
        (r.successes, r.collisions, r.idle_slots) for r in runs
    ]
    assert len(set(counters)) == len(counters), (
        "identical repetition results suggest re-seeded reps share "
        "a stream"
    )
    # And the whole repetition set is itself reproducible.
    again = simulate(scenario, repetitions=3)
    assert [
        (r.successes, r.collisions, r.idle_slots) for r in again
    ] == counters
