"""Microcontroller and sensor energy models.

Both prototypes use the TI MSP430FR5969 [10]: at least 1.9 V to run at
1 MHz, sub-2 ms boot, 64 KB of non-volatile FRAM. The paper's firmware is
power-optimised to 2.77 µJ per temperature measurement-and-transmit and
10.4 mJ per image capture.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Energy for one temperature sample + UART transmission (§5.1).
TEMPERATURE_READ_ENERGY_J = 2.77e-6

#: Minimum supply for the MSP430FR5969 at 1 MHz.
MCU_MIN_VOLTAGE_V = 1.9

#: Boot time of the MSP430FR5969 (§5.1: "boots in less than 2 ms").
MCU_BOOT_TIME_S = 2e-3


@dataclass(frozen=True)
class Msp430Fr5969:
    """The MSP430FR5969 as an energy load.

    Attributes
    ----------
    min_voltage_v:
        Supply floor for 1 MHz operation.
    boot_time_s:
        Cold-boot latency.
    fram_bytes:
        Non-volatile storage available for sensor data (the camera stores a
        full QCIF frame here).
    """

    min_voltage_v: float = MCU_MIN_VOLTAGE_V
    boot_time_s: float = MCU_BOOT_TIME_S
    fram_bytes: int = 64 * 1024

    def can_run_at(self, supply_voltage_v: float) -> bool:
        """True when the supply can operate the MCU."""
        return supply_voltage_v >= self.min_voltage_v


@dataclass(frozen=True)
class SensorLoad:
    """A sensing operation as an energy/storage transaction.

    Attributes
    ----------
    name:
        Label ("temperature-read", "image-capture").
    energy_per_operation_j:
        Withdrawn from storage per operation.
    data_bytes:
        Data produced per operation (bounded by the MCU's FRAM).
    min_supply_voltage_v:
        Rail voltage the operation needs.
    """

    name: str
    energy_per_operation_j: float
    data_bytes: int = 2
    min_supply_voltage_v: float = MCU_MIN_VOLTAGE_V

    def __post_init__(self) -> None:
        if self.energy_per_operation_j <= 0:
            raise ConfigurationError("operation energy must be > 0")
        if self.data_bytes < 0:
            raise ConfigurationError("data size must be >= 0")

    def operations_per_second(self, available_power_w: float) -> float:
        """Sustainable operation rate from ``available_power_w``.

        The paper's energy-neutral metric: the ratio of incoming power to
        per-operation energy (§5.1, Experiments).
        """
        if available_power_w < 0:
            raise ConfigurationError("power must be >= 0")
        return available_power_w / self.energy_per_operation_j


#: The LMT84 temperature read + UART transmit load (§5.1).
TEMPERATURE_LOAD = SensorLoad(
    name="temperature-read",
    energy_per_operation_j=TEMPERATURE_READ_ENERGY_J,
    data_bytes=2,
)
