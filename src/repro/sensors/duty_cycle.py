"""Time-domain duty-cycle simulation of a Wi-Fi-powered sensor.

The analytic models in :mod:`repro.sensors.temperature` and
:mod:`repro.sensors.camera` compute long-run rates from average power; this
module simulates the actual charge/boot/operate/sleep cycle against a
time-varying occupancy signal — which is how the battery-free prototypes
really behave (§5.1: the MSP430 boots each time the storage capacitor
reaches 2.4 V, performs one measurement, and browns out again at low
incident power).

It consumes either a constant occupancy, a per-window occupancy series
(e.g. a home deployment log), or live medium records, and produces the
timestamps of completed sensor operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.harvester.harvester import Harvester
from repro.harvester.storage import Capacitor
from repro.sensors.mcu import MCU_BOOT_TIME_S
from repro.units import dbm_to_watts, watts_to_dbm

#: The Seiko storage-capacitor output threshold: the MCU powers on at 2.4 V.
BOOT_VOLTAGE_V = 2.4

#: Brown-out voltage: below this the MCU cannot finish an operation.
BROWNOUT_VOLTAGE_V = 1.9


@dataclass
class OperationRecord:
    """One completed sensor operation."""

    time_s: float
    storage_voltage_before: float
    storage_voltage_after: float


@dataclass
class DutyCycleResult:
    """Outcome of a duty-cycle run."""

    operations: List[OperationRecord] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def count(self) -> int:
        """Number of completed operations."""
        return len(self.operations)

    @property
    def mean_rate_hz(self) -> float:
        """Operations per second over the whole run."""
        if self.duration_s <= 0:
            return 0.0
        return self.count / self.duration_s

    def inter_operation_times(self) -> List[float]:
        """Gaps between consecutive operations."""
        times = [op.time_s for op in self.operations]
        return [b - a for a, b in zip(times, times[1:])]


class DutyCycleSimulator:
    """Charge/boot/operate cycle simulation for one sensor placement.

    Parameters
    ----------
    harvester:
        The harvesting chain feeding the storage capacitor.
    received_power_dbm:
        RF power at the harvester antenna while a channel is busy.
    operation_energy_j:
        Energy one sensor operation draws from storage.
    storage:
        Storage capacitor; defaults to a 10 µF reservoir — large enough to
        ride one measurement (2.77 µJ is a ~50 mV dip at 2.4 V), small
        enough to cold-start in seconds, as the battery-free temperature
        sensor's storage is sized (§5.1).
    step_s:
        Integration step; operations resolve to this granularity.
    boot_voltage_v, floor_voltage_v:
        Storage thresholds: the default 2.4 V / 1.9 V pair models the
        temperature sensor's Seiko chain; the camera's bq25570+supercap
        chain uses 3.1 V / 2.4 V (§5.2).
    """

    def __init__(
        self,
        harvester: Harvester,
        received_power_dbm: float,
        operation_energy_j: float,
        storage: Optional[Capacitor] = None,
        step_s: float = 0.01,
        boot_voltage_v: float = BOOT_VOLTAGE_V,
        floor_voltage_v: float = BROWNOUT_VOLTAGE_V,
    ) -> None:
        if operation_energy_j <= 0:
            raise ConfigurationError("operation energy must be > 0")
        if step_s <= 0:
            raise ConfigurationError("step must be > 0")
        if not (0.0 < floor_voltage_v < boot_voltage_v):
            raise ConfigurationError(
                "need 0 < floor voltage < boot voltage, got "
                f"{floor_voltage_v} / {boot_voltage_v}"
            )
        self.harvester = harvester
        self.received_power_dbm = received_power_dbm
        self.operation_energy_j = operation_energy_j
        self.storage = storage or Capacitor(
            capacitance_f=10e-6, leakage_resistance_ohm=5e6
        )
        self.step_s = step_s
        self.boot_voltage_v = boot_voltage_v
        self.floor_voltage_v = floor_voltage_v

    # ------------------------------------------------------------------ model

    def _harvest_power_w(self, occupancy: float) -> float:
        """DC power into storage at the given instantaneous occupancy."""
        if occupancy <= 0:
            return 0.0
        incident = dbm_to_watts(self.received_power_dbm) * occupancy
        return self.harvester.dc_output_power_w(watts_to_dbm(incident))

    def run(
        self,
        duration_s: float,
        occupancy: Callable[[float], float],
    ) -> DutyCycleResult:
        """Simulate ``duration_s`` seconds against ``occupancy(t)``.

        The storage integrates harvested power (minus leakage); when its
        voltage reaches :data:`BOOT_VOLTAGE_V` and one operation's worth of
        energy is available above the brown-out floor, the MCU boots,
        performs the operation and the cycle repeats.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be > 0")
        result = DutyCycleResult(duration_s=duration_s)
        cap = self.storage
        brownout_energy = 0.5 * cap.capacitance_f * self.floor_voltage_v ** 2
        t = 0.0
        while t < duration_s:
            power = self._harvest_power_w(occupancy(t))
            cap.deposit(power * self.step_s)
            cap.leak(self.step_s)
            if cap.voltage_v >= self.boot_voltage_v:
                usable = cap.energy_j - brownout_energy
                if usable >= self.operation_energy_j:
                    before = cap.voltage_v
                    cap.withdraw(self.operation_energy_j)
                    result.operations.append(
                        OperationRecord(
                            time_s=t + MCU_BOOT_TIME_S,
                            storage_voltage_before=before,
                            storage_voltage_after=cap.voltage_v,
                        )
                    )
            t += self.step_s
        return result

    # ------------------------------------------------------- occupancy inputs

    def run_constant(self, duration_s: float, occupancy: float) -> DutyCycleResult:
        """Run against a constant occupancy level."""
        if occupancy < 0:
            raise ConfigurationError("occupancy must be >= 0")
        return self.run(duration_s, lambda _t: occupancy)

    def run_series(
        self,
        samples: Sequence[float],
        window_s: float,
    ) -> DutyCycleResult:
        """Run against a windowed occupancy log (e.g. a home deployment).

        ``samples[i]`` holds for ``[i*window_s, (i+1)*window_s)``.
        """
        if not samples:
            raise ConfigurationError("need at least one occupancy sample")
        if window_s <= 0:
            raise ConfigurationError("window must be > 0")

        def occupancy(t: float) -> float:
            index = min(int(t / window_s), len(samples) - 1)
            return samples[index]

        return self.run(len(samples) * window_s, occupancy)


def camera_duty_cycle_simulator(
    harvester: Harvester,
    received_power_dbm: float,
) -> DutyCycleSimulator:
    """The battery-free camera's cycle: supercap charges to 3.1 V, the
    bq25570's buck then runs the OV7670 down to 2.4 V per capture (§5.2)."""
    from repro.harvester.storage import SuperCapacitor
    from repro.sensors.camera import IMAGE_CAPTURE_ENERGY_J

    supercap = SuperCapacitor()
    return DutyCycleSimulator(
        harvester,
        received_power_dbm,
        operation_energy_j=IMAGE_CAPTURE_ENERGY_J,
        storage=supercap,
        step_s=1.0,  # camera cycles span minutes; coarse steps suffice
        boot_voltage_v=supercap.activate_voltage_v,
        floor_voltage_v=supercap.floor_voltage_v,
    )
