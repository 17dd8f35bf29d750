"""Tests for the per-device MAC node."""

import pytest

from repro.core.config import CsmaConfig
from repro.core.parameters import PriorityClass
from repro.core.station import SlotOutcome
from repro.engine import RandomStreams
from repro.mac.node import MacNode
from repro.mac.queueing import QueuedMme
from repro.traffic.packets import udp_frame

D = "02:00:00:00:00:00"


def make_node(name="node0", **kwargs):
    node = MacNode(name, RandomStreams(1), **kwargs)
    node.tei = 2
    node.dest_tei_of = lambda mac: 1
    return node


def begin(node, winning):
    """Start a round as the coordinator does after priority resolution."""
    return node.begin_round(winning, node.pending_priority())


def data_frame():
    return udp_frame(dst_mac=D, src_mac="02:00:00:00:00:02")


class TestStations:
    def test_station_per_priority_class(self):
        node = make_node()
        ca1 = node.station_for(PriorityClass.CA1)
        ca3 = node.station_for(PriorityClass.CA3)
        assert ca1 is not ca3
        assert ca1.config.cw == (8, 16, 32, 64)
        assert ca3.config.cw == (8, 16, 16, 32)

    def test_station_cached(self):
        node = make_node()
        assert node.station_for(PriorityClass.CA1) is node.station_for(
            PriorityClass.CA1
        )

    def test_config_override(self):
        custom = CsmaConfig(cw=(4,), dc=(0,))
        node = make_node(configs={PriorityClass.CA1: custom})
        assert node.station_for(PriorityClass.CA1).config is custom


class TestWorkSignal:
    def test_submit_data_signals(self):
        node = make_node()
        signals = []
        node.work_signal = lambda: signals.append(1)
        assert node.submit_data(data_frame())
        assert signals == [1]

    def test_submit_mme_signals(self):
        node = make_node()
        signals = []
        node.work_signal = lambda: signals.append(1)
        node.submit_mme(
            QueuedMme(payload=b"x", dest_tei=1, priority=PriorityClass.CA3)
        )
        assert signals == [1]


class TestRounds:
    def test_begin_round_wrong_priority_defers(self):
        node = make_node()
        node.submit_data(data_frame())
        assert begin(node, PriorityClass.CA3) is False
        assert not node.contending

    def test_begin_round_builds_burst_and_resets(self):
        node = make_node()
        node.submit_data(data_frame())
        assert begin(node, PriorityClass.CA1) is True
        assert node.contending
        burst = node.take_burst()
        assert burst.source_tei == 2
        assert burst.mpdus[0].dest_tei == 1

    def test_idle_node_does_not_contend(self):
        node = make_node()
        assert begin(node, PriorityClass.CA1) is False
        assert node.step() is False

    def test_burst_survives_collisions(self):
        node = make_node()
        node.submit_data(data_frame())
        begin(node, PriorityClass.CA1)
        first = node.take_burst()
        node.step()
        node.resolve(SlotOutcome.COLLISION)
        begin(node, PriorityClass.CA1)
        assert node.take_burst() is first  # retransmission, same burst

    def test_success_consumes_burst(self):
        node = make_node()
        node.submit_data(data_frame())
        begin(node, PriorityClass.CA1)
        # Drive until the node attempts (bounded by CW0 slots).
        for _ in range(10):
            if node.step():
                break
            node.resolve(SlotOutcome.IDLE)
        node.resolve(SlotOutcome.SUCCESS, won=True)
        assert node.tx_bursts == 1
        assert not node.contending
        assert node.pending_priority() is None  # queue drained

    def test_higher_priority_frame_freezes_lower_burst(self):
        node = make_node()
        node.submit_data(data_frame())
        begin(node, PriorityClass.CA1)
        ca1_burst = node.take_burst()
        # A CA3 MME arrives: the node's pending priority flips.
        node.submit_mme(
            QueuedMme(payload=b"x", dest_tei=1, priority=PriorityClass.CA3)
        )
        assert node.pending_priority() == PriorityClass.CA3
        assert begin(node, PriorityClass.CA3) is True
        assert node.take_burst().is_management
        # Win the CA3 round.
        for _ in range(10):
            if node.step():
                break
            node.resolve(SlotOutcome.IDLE)
        node.resolve(SlotOutcome.SUCCESS, won=True)
        # The CA1 burst is still there, untouched.
        assert begin(node, PriorityClass.CA1) is True
        assert node.take_burst() is ca1_burst

    def test_take_burst_without_contending_raises(self):
        node = make_node()
        with pytest.raises(RuntimeError):
            node.take_burst()


class TestSackPath:
    def test_sack_handler_called(self):
        node = make_node()
        node.submit_data(data_frame())
        begin(node, PriorityClass.CA1)
        burst = node.take_burst()
        received = []
        node.sack_handler = lambda sack, b, outcome: received.append(outcome)
        from repro.phy.framing import SackDelimiter

        node.notify_sack(SackDelimiter.success(burst.mpdus[0]), burst, "success")
        node.notify_sack(
            SackDelimiter.collision(burst.mpdus[0]), burst, "collision"
        )
        assert received == ["success", "collision"]
        assert node.tx_collisions == 1
