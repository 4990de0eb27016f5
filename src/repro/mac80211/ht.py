"""802.11n (HT) rates and airtime — validating the paper's §4.1(d) claim.

"While our experiments are with 802.11g, PoWiFi's power packets use the
highest bit rate available for Wi-Fi. Thus, the above fairness property
would hold true even with 802.11n or other Wi-Fi variants."

This module provides the single-stream HT MCS table (20 MHz, long and short
guard interval) and HT airtime math so that claim can be exercised: an
802.11n PoWiFi router sends power packets at MCS 7 (65 / 72.2 Mb/s), whose
frames occupy the channel even more briefly than 54 Mb/s ERP frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.mac80211.rates import PHY_80211G, PhyParameters

#: HT mixed-mode PLCP preamble: L-STF+L-LTF+L-SIG (20 us) + HT-SIG (8 us)
#: + HT-STF (4 us) + one HT-LTF (4 us) for a single spatial stream.
HT_MIXED_PREAMBLE_S = 36e-6

#: OFDM symbol durations: 4 us long GI, 3.6 us short GI.
HT_SYMBOL_LGI_S = 4e-6
HT_SYMBOL_SGI_S = 3.6e-6


@dataclass(frozen=True)
class HtMcs:
    """One single-stream HT MCS at 20 MHz.

    Attributes
    ----------
    index:
        MCS number (0-7 single stream).
    data_bits_per_symbol:
        N_DBPS for 20 MHz operation.
    """

    index: int
    data_bits_per_symbol: int

    def rate_mbps(self, short_gi: bool = False) -> float:
        """Nominal PHY rate at the chosen guard interval.

        >>> HT_MCS_TABLE[7].rate_mbps()
        65.0
        >>> round(HT_MCS_TABLE[7].rate_mbps(short_gi=True), 1)
        72.2
        """
        symbol = HT_SYMBOL_SGI_S if short_gi else HT_SYMBOL_LGI_S
        return self.data_bits_per_symbol / symbol / 1e6


#: Single-stream (Nss=1) 20 MHz HT MCS set.
HT_MCS_TABLE: Dict[int, HtMcs] = {
    0: HtMcs(0, 26),
    1: HtMcs(1, 52),
    2: HtMcs(2, 78),
    3: HtMcs(3, 104),
    4: HtMcs(4, 156),
    5: HtMcs(5, 208),
    6: HtMcs(6, 234),
    7: HtMcs(7, 260),
}


def ht_frame_airtime_s(
    mac_bytes: int,
    mcs: int,
    short_gi: bool = False,
    phy: PhyParameters = PHY_80211G,
) -> float:
    """On-air duration of an HT (mixed-mode) frame.

    ``T = preamble + Nsym * Tsym (+ 6 us signal extension in 2.4 GHz)``,
    with ``Nsym = ceil((16 + 8*bytes + 6) / N_DBPS)``.

    >>> round(ht_frame_airtime_s(1536, 7) * 1e6, 1)  # MCS7 long GI
    234.0
    """
    if mac_bytes <= 0:
        raise ConfigurationError(f"frame size must be > 0, got {mac_bytes}")
    try:
        entry = HT_MCS_TABLE[mcs]
    except KeyError:
        raise ConfigurationError(
            f"unknown single-stream MCS {mcs}; choose 0-7"
        ) from None
    symbol = HT_SYMBOL_SGI_S if short_gi else HT_SYMBOL_LGI_S
    bits = 16 + 8 * mac_bytes + 6
    symbols = math.ceil(bits / entry.data_bits_per_symbol)
    return HT_MIXED_PREAMBLE_S + symbols * symbol + phy.ofdm_signal_extension


def ht_power_packet_advantage(mac_bytes: int = 1536) -> float:
    """How much briefer an MCS7 power frame is than a 54 Mb/s ERP frame.

    The §4.1(d) argument quantified: > 1 means the 802.11n power packet
    occupies the channel for less time, so PoWiFi-on-11n is *more* polite
    to neighbours than the evaluated 802.11g build.
    """
    from repro.mac80211.airtime import frame_airtime_s

    erp = frame_airtime_s(mac_bytes, 54.0)
    ht = ht_frame_airtime_s(mac_bytes, 7, short_gi=True)
    return erp / ht
