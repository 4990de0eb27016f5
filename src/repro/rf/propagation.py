"""Path-loss models.

The paper's range results (Figs. 10–12) are governed by received power versus
distance at 2.4 GHz indoors. We provide the textbook Friis free-space model
and a log-distance model with configurable exponent; indoor corridors at short
range are well described by exponents between ~1.6 (waveguiding) and ~3
(cluttered NLOS). The experiment drivers use a mildly waveguided exponent that
reproduces the paper's measured 20/28-foot operating ranges given the
harvester sensitivities it reports.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict

from repro.errors import ConfigurationError
from repro.units import wavelength


class PathLossModel(ABC):
    """Interface: path loss in dB as a function of distance and frequency."""

    @abstractmethod
    def path_loss_db(self, distance_m: float, frequency_hz: float) -> float:
        """Return the path loss in dB at ``distance_m`` and ``frequency_hz``."""

    def _check_distance(self, distance_m: float) -> None:
        if distance_m <= 0.0:
            raise ConfigurationError(
                f"distance must be > 0 m, got {distance_m!r}"
            )


class FreeSpacePathLoss(PathLossModel):
    """Friis free-space path loss: ``20 log10(4 pi d / lambda)``.

    >>> model = FreeSpacePathLoss()
    >>> round(model.path_loss_db(1.0, 2.437e9), 1)
    40.2
    """

    def path_loss_db(self, distance_m: float, frequency_hz: float) -> float:
        self._check_distance(distance_m)
        lam = wavelength(frequency_hz)
        return 20.0 * math.log10(4.0 * math.pi * distance_m / lam)


class LogDistancePathLoss(PathLossModel):
    """Log-distance path loss anchored at a reference distance.

    ``PL(d) = PL_fs(d0) + 10 n log10(d / d0)`` for ``d >= d0``; below the
    reference distance the model falls back to free space so the loss is
    continuous and physical at very short range.

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n``. Free space is 2.0; indoor line-of-sight
        corridors measure 1.6–1.8; cluttered indoor NLOS measures 2.5–4.
    reference_distance_m:
        Anchor distance ``d0`` at which free-space loss is assumed.
    """

    def __init__(self, exponent: float = 2.0, reference_distance_m: float = 1.0) -> None:
        if exponent <= 0:
            raise ConfigurationError(f"path-loss exponent must be > 0, got {exponent!r}")
        if reference_distance_m <= 0:
            raise ConfigurationError(
                f"reference distance must be > 0 m, got {reference_distance_m!r}"
            )
        self.exponent = float(exponent)
        self.reference_distance_m = float(reference_distance_m)
        self._free_space = FreeSpacePathLoss()
        #: frequency -> free-space loss at ``d0``, computed when first needed.
        self._anchors: Dict[float, float] = {}

    def path_loss_db(self, distance_m: float, frequency_hz: float) -> float:
        self._check_distance(distance_m)
        d0 = self.reference_distance_m
        if distance_m <= d0:
            return self._free_space.path_loss_db(distance_m, frequency_hz)
        anchor = self._anchors.get(frequency_hz)
        if anchor is None:
            anchor = self._anchors[frequency_hz] = self._free_space.path_loss_db(
                d0, frequency_hz
            )
        return anchor + 10.0 * self.exponent * math.log10(distance_m / d0)


#: Path-loss exponent used by the experiment drivers for the paper's office
#: and home environments. Slightly below free space: the harvester range
#: results in the paper (20 ft battery-free at −17.8 dBm sensitivity with a
#: 30 dBm, 6 dBi router and a 2 dBi harvester antenna) are only consistent
#: with mild corridor waveguiding, a well-documented indoor LOS effect.
INDOOR_LOS_EXPONENT = 1.85
