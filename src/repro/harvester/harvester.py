"""The assembled multi-channel harvester (§3.1).

Chains the matching network, voltage-doubler rectifier and DC–DC converter
into the two prototypes the paper builds:

* **battery-free** — Seiko S-882Z charge pump, 300 mV cold start;
* **battery-recharging** — TI bq25570 with MPPT, battery-backed.

Two operating regimes matter and the model evaluates both, taking whichever
yields more power:

* **trickle** (near threshold): the DC–DC draws almost nothing, the
  rectifier is effectively unloaded — high input impedance, poor match, but
  maximal voltage doubling. This regime sets the *sensitivity*: the
  battery-free variant needs the unloaded open-circuit voltage to exceed the
  300 mV cold start; the battery-backed bq25570 only needs ~200 mV, which is
  exactly why the paper measures −19.3 dBm versus −17.8 dBm (§4.2(b)).
* **bulk** (well above threshold): the DC–DC loads the rectifier at its
  operating point, the input impedance drops into the 300–500 Ω range the
  LC network matches (< −10 dB across the band), and power transfer follows
  the load line.

High-power compression: beyond a few hundred microwatts the doubler output
compresses (diode breakdown clamps the swing and the excess is re-radiated),
reproducing the measured flattening of Fig 10 toward ~150 µW at +4 dBm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis import first_true
from repro.errors import CircuitError
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.harvester.dcdc import (
    DcDcConverter,
    SeikoSz882,
    TiBq25570,
    TiBq25570Standalone,
)
from repro.harvester.matching import (
    LMatchingNetwork,
    battery_free_matching,
    battery_recharging_matching,
)
from repro.harvester.rectifier import VoltageDoubler
from repro.units import dbm_to_watts

#: RF parasitic power-loss factor at 2.4 GHz (junction-capacitance bypass,
#: substrate and capacitor losses) applied to the conversion path.
RF_PARASITIC_FACTOR = 0.75

#: Doubler output compression scale: the measured Fig 10 curves flatten as
#: the diodes approach breakdown. Delivered powers near this value halve the
#: marginal conversion.
COMPRESSION_POWER_W = 350e-6


@dataclass
class HarvesterOperatingPoint:
    """Diagnostic snapshot of the harvester at one input power."""

    incident_power_w: float
    regime: str  # "off", "trickle" or "bulk"
    delivered_power_w: float
    rf_amplitude_v: float
    open_circuit_v: float
    operating_voltage_v: float
    rectifier_output_w: float
    dc_output_w: float


class Harvester:
    """One harvester prototype: matching + doubler + DC–DC.

    Parameters
    ----------
    matching:
        The LC network with its rectifier impedance model.
    rectifier:
        The voltage-doubler model.
    dcdc:
        The DC–DC converter (Seiko or TI).
    name:
        Label used in reports.
    metrics:
        Telemetry destination; defaults to the process-wide registry, which
        is a no-op under ``--no-obs``.
    """

    def __init__(
        self,
        matching: LMatchingNetwork,
        rectifier: VoltageDoubler,
        dcdc: DcDcConverter,
        name: str = "harvester",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.matching = matching
        self.rectifier = rectifier
        self.dcdc = dcdc
        self.name = name
        registry = metrics if metrics is not None else obs_runtime.get_registry()
        self._m_regimes = {
            regime: registry.counter(
                "harvester.chain.evaluations", chain=name, regime=regime
            )
            for regime in ("off", "trickle", "bulk")
        }
        self._m_dc_out = registry.gauge("harvester.chain.dc_output_uw", chain=name)
        # Chain constants: the parts are never reassigned and the converters
        # are frozen. Matching constants are cached per (frequency, loaded).
        self._v_need = self._threshold_voltage()
        self._frac = dcdc.operating_input_voltage_fraction
        self._v_min = dcdc.minimum_operating_voltage_v
        self._match: Dict[Tuple[float, bool], Tuple[float, float]] = {}

    # --------------------------------------------------------------- internals

    def _threshold_voltage(self) -> float:
        """Voltage the unloaded rectifier must reach for the chain to run.

        The Seiko's 300 mV cold start for the battery-free build; the
        bq25570's MPPT reference (200 mV) for the battery-backed build.
        """
        cold = self.dcdc.cold_start_voltage_v
        if math.isinf(cold):
            if isinstance(self.dcdc, TiBq25570):
                return self.dcdc.mppt_reference_v
            return self.dcdc.minimum_operating_voltage_v
        return cold

    def _regime(
        self, incident_power_w: float, frequency_hz: float, loaded: bool
    ) -> Tuple[float, float, float]:
        """(delivered, amplitude, open-circuit voltage) for one regime."""
        match = self._match.get((frequency_hz, loaded))
        if match is None:
            rect = self.matching.rectifier
            match = self._match[frequency_hz, loaded] = (
                self.matching.delivered_fraction(frequency_hz, loaded=loaded),
                rect.loaded_resistance_ohm if loaded else rect.unloaded_resistance_ohm,
            )
        df, r_in = match
        delivered = incident_power_w * df
        va = self.rectifier.amplitude_at_rectifier(delivered, r_in)
        voc = self.rectifier.open_circuit_voltage(va)
        return delivered, va, voc

    def _rectifier_power(
        self, delivered_w: float, va: float, voc: float, v_op: float
    ) -> float:
        """Load-line power with parasitic and compression factors applied."""
        if voc <= v_op or voc <= 0:
            return 0.0
        shape = 4.0 * v_op * (voc - v_op) / (voc * voc)
        eta = self.rectifier.conversion_efficiency(va)
        compression = 1.0 / (1.0 + delivered_w / COMPRESSION_POWER_W)
        return delivered_w * RF_PARASITIC_FACTOR * eta * compression * shape

    # ------------------------------------------------------------- public API

    def operating_point(
        self, incident_power_dbm: float, frequency_hz: float = 2.437e9
    ) -> HarvesterOperatingPoint:
        """Full chain evaluation at one incident RF power."""
        p_in = dbm_to_watts(incident_power_dbm)
        # The chain runs only if the unloaded doubler can reach threshold
        # (cold start for Seiko; MPPT reference for the battery build).
        d_t, va_t, voc_t = self._regime(p_in, frequency_hz, loaded=False)
        if voc_t < self._v_need:
            regime, delivered, va, voc, v_op, p_rect, dc_out = (
                "off", 0.0, va_t, voc_t, 0.0, 0.0, 0.0,
            )
        else:
            # Trickle regime: unloaded rectifier. Once past the cold-start
            # threshold the converter regulates its input to its preferred
            # fraction of Voc (floored at its minimum operating voltage).
            frac = self._frac
            v_trickle = max(frac * voc_t, self._v_min)
            p_trickle = self._rectifier_power(d_t, va_t, voc_t, v_trickle)
            # Bulk regime: DC-DC loads the rectifier at its preferred
            # fraction of Voc, floored at the converter's minimum input.
            d_b, va_b, voc_b = self._regime(p_in, frequency_hz, loaded=True)
            v_bulk = max(frac * voc_b, self._v_min)
            p_bulk = self._rectifier_power(d_b, va_b, voc_b, v_bulk)
            if p_bulk >= p_trickle:
                regime, delivered, va, voc, v_op, p_rect = (
                    "bulk", d_b, va_b, voc_b, v_bulk, p_bulk,
                )
            else:
                regime, delivered, va, voc, v_op, p_rect = (
                    "trickle", d_t, va_t, voc_t, v_trickle, p_trickle,
                )
            dc_out = self.dcdc.transfer(p_rect, v_op)
        self._m_regimes[regime].inc()
        self._m_dc_out.set(dc_out * 1e6)
        return HarvesterOperatingPoint(
            incident_power_w=p_in,
            regime=regime,
            delivered_power_w=delivered,
            rf_amplitude_v=va,
            open_circuit_v=voc,
            operating_voltage_v=v_op,
            rectifier_output_w=p_rect,
            dc_output_w=dc_out,
        )

    def rectifier_output_power_w(
        self, incident_power_dbm: float, frequency_hz: float = 2.437e9
    ) -> float:
        """Available power at the rectifier output — Fig 10's y-axis."""
        return self.operating_point(incident_power_dbm, frequency_hz).rectifier_output_w

    def dc_output_power_w(
        self, incident_power_dbm: float, frequency_hz: float = 2.437e9
    ) -> float:
        """Regulated DC power after the DC–DC converter (the sensor budget)."""
        return self.operating_point(incident_power_dbm, frequency_hz).dc_output_w

    def is_operational(
        self, incident_power_dbm: float, frequency_hz: float = 2.437e9
    ) -> bool:
        """True when the chain produces any DC output at this input power."""
        return self.operating_point(incident_power_dbm, frequency_hz).regime != "off"

    def sensitivity_dbm(
        self,
        frequency_hz: float = 2.437e9,
        floor_dbm: float = -30.0,
        ceiling_dbm: float = 0.0,
        resolution_db: float = 0.05,
    ) -> float:
        """Lowest incident power at which the harvester operates.

        The §4.2(b) metric: −17.8 dBm (battery-free), −19.3 dBm
        (battery-recharging) in the paper's measurements. The chain operates
        once the unloaded doubler's open-circuit voltage, which rises with
        incident power, reaches threshold; so the grid is bisected.
        """
        steps = int((ceiling_dbm - floor_dbm) / resolution_db)
        i = first_true(
            lambda i: self.is_operational(floor_dbm + i * resolution_db, frequency_hz),
            0, steps,
        )
        if i <= steps:
            return floor_dbm + i * resolution_db
        raise CircuitError(
            f"harvester never operates below {ceiling_dbm} dBm at "
            f"{frequency_hz / 1e9:.3f} GHz"
        )


def battery_free_harvester() -> Harvester:
    """The battery-free prototype: LC match + doubler + Seiko S-882Z."""
    return Harvester(
        matching=battery_free_matching(),
        rectifier=VoltageDoubler(knee_voltage_v=0.080, loss_voltage_v=0.10),
        dcdc=SeikoSz882(),
        name="battery-free",
    )


def battery_recharging_harvester() -> Harvester:
    """The battery-recharging prototype: retuned match + doubler + bq25570."""
    return Harvester(
        matching=battery_recharging_matching(),
        rectifier=VoltageDoubler(knee_voltage_v=0.080, loss_voltage_v=0.10),
        dcdc=TiBq25570(),
        name="battery-recharging",
    )


def battery_free_camera_harvester() -> Harvester:
    """The battery-free camera's chain: bq25570 cold-started from a supercap.

    §5.2: the camera's image sensor and MCU are powered by the bq25570's
    buck converter even in the battery-free build; the chip's ~330 mV
    cold start is what limits the camera to 17 feet versus the temperature
    sensor's 20 feet.
    """
    return Harvester(
        matching=battery_free_matching(),
        rectifier=VoltageDoubler(knee_voltage_v=0.080, loss_voltage_v=0.10),
        dcdc=TiBq25570Standalone(),
        name="battery-free-camera",
    )
