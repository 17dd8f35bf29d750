"""FSM tests for the 1901 station (exact reference-listing semantics).

A scripted fake RNG makes every backoff draw deterministic, so each
test walks the station through a known slot-event sequence and checks
the counters against the rules of the MATLAB listing in §4.2.
"""

import numpy as np
import pytest

from repro.core.config import CsmaConfig
from repro.core.station import SlotOutcome, Station, StationState


class ScriptedRng:
    """Returns pre-programmed values for ``integers(0, cw)`` calls."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.calls = []

    def integers(self, low, high):
        self.calls.append((low, high))
        if not self.draws:
            raise AssertionError("scripted RNG exhausted")
        value = self.draws.pop(0)
        assert low <= value < high, f"scripted draw {value} out of [{low},{high})"
        return value


def make_station(draws, cw=(8, 16, 32, 64), dc=(0, 1, 3, 15), **kwargs):
    config = CsmaConfig(cw=cw, dc=dc, **kwargs)
    return Station(config, ScriptedRng(draws), index=0)


def drain_idle(station, n):
    """Feed ``n`` idle slots; returns list of attempt flags."""
    flags = []
    for _ in range(n):
        flags.append(station.step())
        station.resolve(SlotOutcome.IDLE)
    return flags


def test_initial_redraw_uses_stage_zero():
    station = make_station([5])
    station.step()
    assert station.cw == 8
    assert station.bc == 5
    assert station.bpc == 1
    assert station.dc == 0  # d_0 = 0


def test_draw_zero_means_immediate_attempt():
    station = make_station([0])
    assert station.step() is True
    assert station.attempting


def test_bc_counts_down_on_idle_slots():
    station = make_station([3])
    flags = drain_idle(station, 3)
    assert flags == [False, False, False]  # redraw(3), 2, 1
    assert station.bc == 1
    assert station.step() is True  # 1 -> 0: attempt


def test_skip_idle_consumes_only_the_certain_idle_slots():
    station = make_station([5])
    station.step()  # INIT: BC = 5
    assert station.quiet_slots == 0  # INIT makes no promise
    station.resolve(SlotOutcome.IDLE)
    assert station.quiet_slots == 4
    station.skip_idle(4)
    assert (station.bc, station.quiet_slots) == (1, 0)
    with pytest.raises(ValueError):
        station.skip_idle(1)
    assert station.step() is True  # the slot a skip may not take


def test_busy_slot_decrements_bc_and_dc():
    station = make_station([5, 7], cw=(8, 16), dc=(2, 3))
    station.step()  # redraw: bc=5, dc=2
    station.resolve(SlotOutcome.SUCCESS)  # someone else transmitted
    assert station.state == StationState.INIT
    station.step()  # INIT branch: bc 5->4, dc 2->1
    assert station.bc == 4
    assert station.dc == 1


def test_jump_fires_on_deferral_expiry_before_bc():
    # d_0 = 0: the *second* busy event in stage 0 triggers the jump
    # (first busy decrements nothing since DC is checked before
    # decrementing: DC==0 already -> jump at the first busy).
    station = make_station([5, 11])
    station.step()  # redraw stage 0: bc=5, dc=0
    station.resolve(SlotOutcome.COLLISION)  # other stations collided
    attempted = station.step()  # INIT: dc==0 -> jump to stage 1
    assert not attempted
    assert station.cw == 16
    assert station.bc == 11
    assert station.bpc == 2
    assert station.jumps == 1
    assert station.dc == 1  # d_1


def test_jump_does_not_count_attempt():
    station = make_station([5, 11])
    station.step()
    station.resolve(SlotOutcome.SUCCESS)
    station.step()
    assert station.attempts_this_frame == 0
    assert station.collisions == 0


def test_dc_greater_zero_survives_busy_events():
    station = make_station([4, 9], cw=(8, 16), dc=(2, 5))
    station.step()  # bc=4, dc=2
    for expected_bc, expected_dc in ((3, 1), (2, 0)):
        station.resolve(SlotOutcome.SUCCESS)
        station.step()
        assert (station.bc, station.dc) == (expected_bc, expected_dc)
    # Third busy event: dc==0 checked before decrement -> jump.
    station.resolve(SlotOutcome.SUCCESS)
    station.step()
    assert station.cw == 16
    assert station.bc == 9


def test_winner_resets_to_stage_zero():
    station = make_station([0, 3])
    station.step()  # immediate attempt
    done = station.resolve(SlotOutcome.SUCCESS, won=True)
    assert done is True
    assert station.successes == 1
    assert station.bpc == 0
    station.reset_for_new_frame()
    station.step()  # fresh frame redraw at stage 0
    assert station.cw == 8
    assert station.bc == 3


def test_collision_escalates_stage():
    station = make_station([0, 9])
    station.step()
    done = station.resolve(SlotOutcome.COLLISION)
    assert done is False
    assert station.collisions == 1
    station.step()  # INIT with bc==0 -> redraw at stage 1
    assert station.cw == 16
    assert station.bc == 9
    assert station.bpc == 2


def test_stage_clamps_at_last():
    draws = [0] * 8
    station = make_station(draws)
    for expected_cw in (8, 16, 32, 64, 64, 64):
        station.step()
        assert station.cw == expected_cw
        station.resolve(SlotOutcome.COLLISION)


def test_stage_property_clamped():
    station = make_station([0, 0, 0, 0, 0, 0])
    for _ in range(6):
        station.step()
        station.resolve(SlotOutcome.COLLISION)
    assert station.stage == 3  # num_stages - 1


def test_retry_limit_drops_frame():
    station = make_station([0, 0, 0], retry_limit=3)
    for attempt in range(3):
        station.step()
        done = station.resolve(SlotOutcome.COLLISION)
    assert done is True
    assert station.drops == 1
    assert station.collisions == 3
    assert station.bpc == 0  # fresh frame


def test_infinite_retries_never_drop():
    station = make_station([0] * 50)
    for _ in range(50):
        station.step()
        assert station.resolve(SlotOutcome.COLLISION) is False
    assert station.drops == 0


def test_dormant_station_never_attempts():
    station = make_station([])
    station.sleep()
    assert station.step() is False
    assert station.resolve(SlotOutcome.SUCCESS) is False
    assert station.dormant


def test_wake_from_dormant_starts_stage_zero():
    station = make_station([2])
    station.sleep()
    station.reset_for_new_frame()
    assert not station.dormant
    station.step()
    assert station.cw == 8
    assert station.bpc == 1


def test_idle_after_busy_returns_to_countdown():
    station = make_station([3])
    station.step()  # bc=3
    station.resolve(SlotOutcome.IDLE)
    assert station.state == StationState.IDLE
    station.step()  # idle branch: bc 3->2
    assert station.bc == 2


def test_attempts_counter_per_frame():
    station = make_station([0, 0, 5])
    station.step()
    station.resolve(SlotOutcome.COLLISION)
    station.step()  # redraw 0 -> immediate attempt again
    assert station.attempts_this_frame == 2
    station.resolve(SlotOutcome.SUCCESS, won=True)
    assert station.attempts_this_frame == 0


def test_bpc_counts_redraws_since_success():
    station = make_station([4, 9, 0])
    station.step()  # redraw 1 (stage 0)
    assert station.bpc == 1
    station.resolve(SlotOutcome.COLLISION)
    station.step()  # jump: redraw 2 (stage 1)
    assert station.bpc == 2


def test_80211_config_never_jumps():
    config = CsmaConfig.ieee80211(cw_min=4, max_stage=2)
    station = Station(config, ScriptedRng([3, 3, 3, 3]), index=0)
    station.step()  # bc=3, dc=4 (== cw, unreachable)
    for _ in range(3):
        station.resolve(SlotOutcome.SUCCESS)
        station.step()
    assert station.jumps == 0
    # After 3 busy decrements bc reached 0 -> attempt.
    assert station.attempting


def test_repr_mentions_state():
    station = make_station([2])
    assert "Station" in repr(station)
    assert "INIT" in repr(station)


def test_real_rng_draws_within_window():
    config = CsmaConfig.default_1901()
    station = Station(config, np.random.default_rng(0))
    for _ in range(200):
        station.step()
        assert 0 <= station.bc < station.cw
        station.resolve(SlotOutcome.COLLISION)
