"""Rate diversity: the CSMA airtime anomaly on the emulated testbed.

§4.1 explains that bit loading — hence frame airtime — depends on each
link's channel.  With CSMA/CA giving stations equal *transmission
opportunities*, a station on an attenuated outlet (low SNR → low
tone-map rate → long MPDUs) consumes disproportionate airtime and
drags every station's goodput down toward the slow link's rate: the
classic performance anomaly, reproduced here with SNR-driven tone
maps (:mod:`repro.phy.bitloading`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..phy.rates import LinkRateTable
from ..phy.timing import PhyTiming
from .procedures import warm_up
from .testbed import build_testbed

__all__ = ["RateDiversityResult", "rate_diversity_experiment"]


@dataclasses.dataclass(frozen=True)
class RateDiversityResult:
    """Outcome of one rate-diversity run."""

    slow_snr_db: Optional[float]
    #: Per-station delivered frames at D (keyed by station MAC).
    frames_per_station: Dict[str, int]
    #: Aggregate goodput at D (Mbps).
    goodput_mbps: float
    #: Payload rate (Mbps) of the slow station's link, if any.
    slow_link_rate_mbps: Optional[float]
    duration_us: float
    #: Fraction of the window's busy airtime each station's
    #: transmissions used (keyed by station MAC; the anomaly's smoking
    #: gun).
    airtime_share: Dict[str, float] = dataclasses.field(
        default_factory=dict
    )


def rate_diversity_experiment(
    num_stations: int = 3,
    slow_snr_db: Optional[float] = None,
    duration_us: float = 12e6,
    warmup_us: float = 2e6,
    seed: int = 1,
) -> RateDiversityResult:
    """N saturated stations → D; station 0 optionally on a bad outlet.

    ``slow_snr_db=None`` runs the homogeneous baseline (all links at
    the calibrated SNR); otherwise station 0's links are degraded to
    ``slow_snr_db`` and its MPDUs stretch accordingly (rate-based
    airtime, no fixed MPDU duration).
    """
    rates = LinkRateTable()
    tb = build_testbed(
        num_stations,
        seed=seed,
        timing=PhyTiming(fixed_mpdu_airtime_us=None, link_rates=rates),
    )
    warm_up(tb, warmup_us)
    destination, stations = tb.destination, tb.stations
    slow_rate = None
    if slow_snr_db is not None:
        rates.set_station_snr(stations[0].tei, slow_snr_db)
        slow_rate = rates.rate_mbps(stations[0].tei, destination.tei)

    # Measure over the test window only.
    log = tb.avln.coordinator.log
    airtime_before = dict(log.airtime_by_source)
    rx_bytes_before = destination.received_bytes
    frames_before = {
        station.mac_addr: destination.firmware.link(
            destination.firmware.RX, station.mac_addr, 1
        ).acked
        for station in stations
    }
    start = tb.env.now
    tb.run_until(start + duration_us)
    elapsed = tb.env.now - start

    frames = {
        station.mac_addr: destination.firmware.link(
            destination.firmware.RX, station.mac_addr, 1
        ).acked
        - frames_before[station.mac_addr]
        for station in stations
    }
    goodput = (destination.received_bytes - rx_bytes_before) * 8.0 / elapsed
    airtime = {
        tei: used - airtime_before.get(tei, 0.0)
        for tei, used in log.airtime_by_source.items()
    }
    busy = sum(airtime.values())
    airtime_share = {
        station.mac_addr: (
            airtime.get(station.tei, 0.0) / busy if busy > 0 else 0.0
        )
        for station in stations
    }
    return RateDiversityResult(
        slow_snr_db=slow_snr_db,
        frames_per_station=frames,
        goodput_mbps=goodput,
        slow_link_rate_mbps=slow_rate,
        duration_us=elapsed,
        airtime_share=airtime_share,
    )


def anomaly_sweep(
    snrs: Sequence[Optional[float]] = (None, 12.0, 3.0),
    num_stations: int = 3,
    duration_us: float = 12e6,
    seed: int = 1,
) -> List[RateDiversityResult]:
    """Baseline plus progressively worse outlets for station 0."""
    return [
        rate_diversity_experiment(
            num_stations=num_stations,
            slow_snr_db=snr,
            duration_us=duration_us,
            seed=seed,
        )
        for snr in snrs
    ]
