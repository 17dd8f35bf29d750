"""Tests for the broadcast power-strip medium."""

import numpy as np
import pytest

from repro.core.parameters import PriorityClass
from repro.phy.channel import (
    BernoulliPbErrors,
    IdealChannel,
    PowerStrip,
    SofObservation,
)
from repro.phy.framing import Mpdu, SofDelimiter, segment_into_pbs


def mpdu(dst=1, size=1514):
    return Mpdu(
        source_tei=2, dest_tei=dst, priority=PriorityClass.CA1,
        blocks=tuple(segment_into_pbs(1, size)),
    )


def sof():
    return SofDelimiter(
        source_tei=2, dest_tei=1, link_id=1, mpdu_count=0,
        frame_length_bytes=1536, num_blocks=3,
    )


class TestAttachment:
    def test_all_receivers_hear_broadcast_bus(self):
        strip = PowerStrip()
        heard = []
        strip.attach(lambda m, t: heard.append(("a", m.dest_tei)))
        strip.attach(lambda m, t: heard.append(("b", m.dest_tei)))
        strip.deliver_mpdu(mpdu(dst=1), 0.0)
        assert heard == [("a", 1), ("b", 1)]

    def test_double_attach_rejected(self):
        strip = PowerStrip()
        handler = lambda m, t: None
        strip.attach(handler)
        with pytest.raises(ValueError):
            strip.attach(handler)

    def test_detach(self):
        strip = PowerStrip()
        heard = []
        handler = lambda m, t: heard.append(m)
        other = lambda m, t: None
        strip.attach(handler)
        strip.attach(other)
        strip.detach(handler)
        strip.deliver_mpdu(mpdu(), 0.0)
        assert heard == []
        assert strip.num_receivers == 1

    def test_deliver_without_receivers_rejected(self):
        strip = PowerStrip()
        with pytest.raises(RuntimeError, match="no attached receivers"):
            strip.deliver_mpdu(mpdu(), 0.0)

    def test_deliver_after_last_detach_rejected(self):
        strip = PowerStrip()
        handler = lambda m, t: None
        strip.attach(handler)
        strip.detach(handler)
        with pytest.raises(RuntimeError, match="no attached receivers"):
            strip.deliver_mpdu(mpdu(), 0.0)


class TestSniffers:
    def test_sniffer_sees_every_sof(self):
        strip = PowerStrip()
        seen = []
        strip.add_sniffer(seen.append)
        strip.observe_sof(sof(), 10.0, collided=False)
        strip.observe_sof(sof(), 20.0, collided=True)
        assert len(seen) == 2
        assert isinstance(seen[0], SofObservation)
        assert seen[1].collided
        assert strip.sof_count == 2

    def test_remove_sniffer(self):
        strip = PowerStrip()
        seen = []
        strip.add_sniffer(seen.append)
        strip.remove_sniffer(seen.append)
        strip.observe_sof(sof(), 0.0, collided=False)
        assert seen == []


class TestErrorModels:
    def test_ideal_channel_never_errors(self):
        flags = IdealChannel().pb_error_flags(mpdu())
        assert flags == [False, False, False]

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            BernoulliPbErrors(1.5, np.random.default_rng(0))

    def test_bernoulli_rate(self):
        model = BernoulliPbErrors(0.3, np.random.default_rng(0))
        errors = sum(
            sum(model.pb_error_flags(mpdu())) for _ in range(2000)
        )
        assert errors / 6000 == pytest.approx(0.3, abs=0.03)

    def test_all_errored_mpdu_not_delivered(self):
        strip = PowerStrip(
            error_model=BernoulliPbErrors(1.0, np.random.default_rng(0))
        )
        heard = []
        strip.attach(lambda m, t: heard.append(m))
        flags = strip.deliver_mpdu(mpdu(), 0.0)
        assert all(flags)
        assert heard == []
        assert strip.delivered_mpdus == 0

    def test_delivery_counter(self):
        strip = PowerStrip()
        strip.attach(lambda m, t: None)
        strip.deliver_mpdu(mpdu(), 0.0)
        assert strip.delivered_mpdus == 1

    def test_every_model_gets_the_wire_time(self):
        seen = []

        class Recording:
            def pb_error_flags(self, mpdu, time_us=0.0):
                seen.append(time_us)
                return [False] * max(mpdu.num_blocks, 1)

        strip = PowerStrip(error_model=Recording())
        strip.attach(lambda m, t: None)
        strip.deliver_mpdu(mpdu(), 42.0)
        assert seen == [42.0]
