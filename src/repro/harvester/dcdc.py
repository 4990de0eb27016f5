"""DC–DC converter models: Seiko S-882Z and TI bq25570 (§3.1).

The battery-free harvester uses the Seiko SZ882 charge pump — best-in-class
cold start from 300 mV, boosting a storage capacitor to 2.4 V. The
battery-recharging harvester uses the TI bq25570 energy-harvesting chip: no
cold-start problem (the battery provides a rail), maximum-power-point
tracking with the paper's 200 mV reference setting, and a buck regulator for
the sensor load.

Efficiency curves are datasheet-style lookup tables (linear interpolation in
input voltage); charge pumps are markedly less efficient than inductive
boost converters, and both sag near their minimum input.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.errors import CircuitError


def _interp(
    points: Sequence[Tuple[float, float]], x: float, xs: Sequence[float]
) -> float:
    """Piecewise-linear interpolation with flat extrapolation.

    ``xs`` is the x column of ``points``, split off once by the caller.
    """
    if not points:
        raise CircuitError("empty interpolation table")
    if x <= xs[0]:
        return points[0][1]
    if x >= xs[-1]:
        return points[-1][1]
    i = bisect.bisect_right(xs, x)
    x0, y0 = points[i - 1]
    x1, y1 = points[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


class DcDcConverter(ABC):
    """Interface shared by both converter models."""

    @property
    @abstractmethod
    def cold_start_voltage_v(self) -> float:
        """Minimum rectifier voltage required to begin operating from 0 V
        stored energy (``inf`` when the converter cannot cold start)."""

    @property
    @abstractmethod
    def operating_input_voltage_fraction(self) -> float:
        """Where on the rectifier's load line the converter holds its input,
        as a fraction of the open-circuit voltage."""

    @property
    @abstractmethod
    def minimum_operating_voltage_v(self) -> float:
        """Input voltage floor below which the running converter stalls."""

    @abstractmethod
    def efficiency(self, input_voltage_v: float) -> float:
        """Transfer efficiency at ``input_voltage_v``."""

    def __post_init__(self) -> None:
        # Concrete converters are frozen dataclasses with an efficiency table.
        object.__setattr__(self, "_xs", tuple(x for x, _y in self.efficiency_table))

    def transfer(self, input_power_w: float, input_voltage_v: float) -> float:
        """Output power for ``input_power_w`` at ``input_voltage_v``."""
        if input_power_w < 0:
            raise CircuitError(f"input power must be >= 0, got {input_power_w}")
        if input_voltage_v < self.minimum_operating_voltage_v:
            return 0.0
        return input_power_w * self.efficiency(input_voltage_v)


@dataclass(frozen=True)
class SeikoSz882(DcDcConverter):
    """The S-882Z charge pump: 300 mV cold start, 2.4 V storage target [15].

    Once the storage capacitor reaches 2.4 V the internal switch connects it
    to the output, powering the microcontroller and sensors.
    """

    cold_start_v: float = 0.30
    storage_target_v: float = 2.4
    #: Charge-pump efficiency vs input voltage: poor near the cold-start
    #: floor, peaking mid-range, sagging when the pump's fixed multiplication
    #: ratio overshoots the storage voltage.
    efficiency_table: Tuple[Tuple[float, float], ...] = (
        (0.30, 0.27),
        (0.40, 0.45),
        (0.60, 0.54),
        (0.90, 0.50),
        (1.20, 0.39),
        (1.80, 0.27),
        (2.40, 0.18),
    )

    @property
    def cold_start_voltage_v(self) -> float:
        return self.cold_start_v

    @property
    def operating_input_voltage_fraction(self) -> float:
        # The charge pump loads the rectifier close to its maximum power
        # point but must never let the input sag below the cold-start floor.
        return 0.5

    @property
    def minimum_operating_voltage_v(self) -> float:
        return self.cold_start_v

    def efficiency(self, input_voltage_v: float) -> float:
        """Datasheet-style interpolated charge-pump efficiency."""
        if input_voltage_v < self.cold_start_v:
            return 0.0
        return _interp(self.efficiency_table, input_voltage_v, self._xs)


@dataclass(frozen=True)
class TiBq25570(DcDcConverter):
    """The bq25570 boost charger + buck regulator [5].

    With a battery on ``Vbat`` there is no cold-start problem: the chip's
    boost converter harvests from inputs down to ~100 mV and its MPPT
    periodically samples the rectifier's open-circuit voltage, then holds
    the input at a programmed fraction of it. The paper programs the
    reference to 200 mV, which both tracks the maximum power point and
    stabilises the rectifier's RF input impedance across channels.
    """

    minimum_input_v: float = 0.10
    #: The paper's MPPT reference setting.
    mppt_reference_v: float = 0.20
    #: The MPPT fraction: bq25570's resistor-programmable Voc fraction.
    mppt_fraction: float = 0.5
    #: Boost-converter efficiency vs input voltage (datasheet Fig: ~60 % at
    #: 100 mV rising above 80 % past 0.5 V, sagging slightly at high Vin).
    efficiency_table: Tuple[Tuple[float, float], ...] = (
        (0.10, 0.38),
        (0.20, 0.53),
        (0.40, 0.63),
        (0.80, 0.68),
        (1.50, 0.66),
        (2.50, 0.61),
    )

    @property
    def cold_start_voltage_v(self) -> float:
        # Stand-alone cold start needs 600 mV; with a battery attached (the
        # paper's configuration) the converter is never cold.
        return float("inf")

    @property
    def operating_input_voltage_fraction(self) -> float:
        return self.mppt_fraction

    @property
    def minimum_operating_voltage_v(self) -> float:
        return self.minimum_input_v

    def efficiency(self, input_voltage_v: float) -> float:
        """Interpolated boost efficiency."""
        if input_voltage_v < self.minimum_input_v:
            return 0.0
        return _interp(self.efficiency_table, input_voltage_v, self._xs)

    def mppt_operating_voltage(self, open_circuit_v: float) -> float:
        """Input voltage the MPPT regulates to, floored at the reference."""
        if open_circuit_v < 0:
            raise CircuitError("open-circuit voltage must be >= 0")
        return max(self.mppt_reference_v, self.mppt_fraction * open_circuit_v)


@dataclass(frozen=True)
class TiBq25570Standalone(TiBq25570):
    """The bq25570 without a battery, cold-starting from a super-capacitor.

    The battery-free *camera* (§5.2) uses this configuration: the chip's
    internal cold-start circuit needs ~330-400 mV at the input (datasheet VIN(CS) plus the supercap path drop)
    before the main boost takes over — slightly above the Seiko's 300 mV,
    which is why the camera's battery-free range (17 ft) is shorter than the
    temperature sensor's (20 ft).
    """

    cold_start_v: float = 0.38

    @property
    def cold_start_voltage_v(self) -> float:
        return self.cold_start_v
