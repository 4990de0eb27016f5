"""Energy-storage elements: capacitors, super-capacitors, and the two
rechargeable chemistries the paper charges over Wi-Fi (§5, Fig 2).

All elements share an energy-bookkeeping interface used by the sensor
duty-cycle simulations: deposit harvested joules, withdraw per-operation
joules, and decay with leakage between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import CircuitError


class Capacitor:
    """An ideal-ish capacitor with parallel leakage resistance.

    Parameters
    ----------
    capacitance_f:
        Capacitance in farads.
    leakage_resistance_ohm:
        Parallel self-discharge path; ``inf`` disables leakage.
    initial_voltage_v:
        Starting voltage.
    """

    def __init__(
        self,
        capacitance_f: float,
        leakage_resistance_ohm: float = float("inf"),
        initial_voltage_v: float = 0.0,
    ) -> None:
        if capacitance_f <= 0:
            raise CircuitError(f"capacitance must be > 0, got {capacitance_f}")
        if leakage_resistance_ohm <= 0:
            raise CircuitError("leakage resistance must be > 0")
        if initial_voltage_v < 0:
            raise CircuitError("initial voltage must be >= 0")
        self.capacitance_f = capacitance_f
        self.leakage_resistance_ohm = leakage_resistance_ohm
        self.voltage_v = initial_voltage_v

    @property
    def energy_j(self) -> float:
        """Stored energy ``C V² / 2``."""
        return 0.5 * self.capacitance_f * self.voltage_v ** 2

    def set_energy(self, energy_j: float) -> None:
        """Set the stored energy (voltage follows)."""
        if energy_j < 0:
            raise CircuitError(f"energy must be >= 0, got {energy_j}")
        self.voltage_v = math.sqrt(2.0 * energy_j / self.capacitance_f)

    def deposit(self, energy_j: float) -> None:
        """Add harvested energy."""
        if energy_j < 0:
            raise CircuitError(f"cannot deposit negative energy {energy_j}")
        self.set_energy(self.energy_j + energy_j)

    def withdraw(self, energy_j: float) -> bool:
        """Remove energy for an operation; False if not enough is stored."""
        if energy_j < 0:
            raise CircuitError(f"cannot withdraw negative energy {energy_j}")
        if energy_j > self.energy_j:
            return False
        self.set_energy(self.energy_j - energy_j)
        return True

    def leak(self, dt_s: float) -> None:
        """Exponential self-discharge over ``dt_s`` seconds."""
        if dt_s < 0:
            raise CircuitError(f"time step must be >= 0, got {dt_s}")
        if math.isinf(self.leakage_resistance_ohm):
            return
        tau = self.leakage_resistance_ohm * self.capacitance_f
        self.voltage_v *= math.exp(-dt_s / tau)


class SuperCapacitor(Capacitor):
    """The AVX BestCap 6.8 mF ultra-low-leakage super-capacitor [4].

    Used as the battery-free camera's storage element: the bq25570's buck
    activates at 3.1 V and runs the camera down to 2.4 V (§5.2).
    """

    def __init__(
        self,
        capacitance_f: float = 6.8e-3,
        leakage_resistance_ohm: float = 2.0e6,
        initial_voltage_v: float = 0.0,
    ) -> None:
        super().__init__(capacitance_f, leakage_resistance_ohm, initial_voltage_v)

    #: Buck-converter activation threshold (§5.2).
    activate_voltage_v = 3.1
    #: Discharge floor during camera operation (§5.2).
    floor_voltage_v = 2.4

    @property
    def usable_energy_j(self) -> float:
        """Energy between the activation threshold and the floor."""
        c = self.capacitance_f
        return 0.5 * c * (self.activate_voltage_v ** 2 - self.floor_voltage_v ** 2)


@dataclass
class _BatteryBase:
    """Shared charge bookkeeping for the rechargeable chemistries."""

    nominal_voltage_v: float
    capacity_mah: float
    charge_efficiency: float
    self_discharge_per_day: float
    stored_mah: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0:
            raise CircuitError("capacity must be > 0 mAh")
        if not (0.0 < self.charge_efficiency <= 1.0):
            raise CircuitError("charge efficiency must be in (0, 1]")
        if not (0.0 <= self.self_discharge_per_day < 1.0):
            raise CircuitError("self-discharge must be in [0, 1)")
        if not (0.0 <= self.stored_mah <= self.capacity_mah):
            raise CircuitError("initial charge outside capacity")

    @property
    def state_of_charge(self) -> float:
        """Fraction of capacity currently stored."""
        return self.stored_mah / self.capacity_mah

    def charge_with_power(self, power_w: float, dt_s: float) -> None:
        """Integrate charging power over ``dt_s`` (with coulombic loss)."""
        if power_w < 0 or dt_s < 0:
            raise CircuitError("power and time must be >= 0")
        current_ma = power_w / self.nominal_voltage_v * 1e3
        gained = current_ma * self.charge_efficiency * dt_s / 3600.0
        self.stored_mah = min(self.capacity_mah, self.stored_mah + gained)

    def discharge_energy(self, energy_j: float) -> bool:
        """Withdraw ``energy_j``; False when the battery cannot supply it."""
        if energy_j < 0:
            raise CircuitError("energy must be >= 0")
        needed_mah = energy_j / (3.6 * self.nominal_voltage_v)
        if needed_mah > self.stored_mah:
            return False
        self.stored_mah -= needed_mah
        return True

    def self_discharge(self, dt_s: float) -> None:
        """Apply calendar self-discharge over ``dt_s``."""
        if dt_s < 0:
            raise CircuitError("time step must be >= 0")
        days = dt_s / 86400.0
        self.stored_mah *= (1.0 - self.self_discharge_per_day) ** days


class NiMHBattery(_BatteryBase):
    """Two AAA 750 mAh low-self-discharge NiMH cells at 2.4 V [12] (§5.1)."""

    def __init__(self, stored_mah: float = 0.0) -> None:
        super().__init__(
            nominal_voltage_v=2.4,
            capacity_mah=750.0,
            charge_efficiency=0.70,
            self_discharge_per_day=0.0005,
            stored_mah=stored_mah,
        )


class LiIonCoinCell(_BatteryBase):
    """The Seiko MS412FE 1 mAh lithium-ion coin cell at 3.0 V [9] (§5.2)."""

    def __init__(self, stored_mah: float = 0.0) -> None:
        super().__init__(
            nominal_voltage_v=3.0,
            capacity_mah=1.0,
            charge_efficiency=0.85,
            self_discharge_per_day=0.0002,
            stored_mah=stored_mah,
        )
