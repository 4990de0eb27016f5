"""The PoWiFi core: power-packet injection with queue-aware dropping.

This package is the paper's primary contribution (§3.2): a user-space
injector sending 1500-byte UDP broadcast datagrams at the highest 802.11g
rate with a constant inter-packet delay, an IP-layer gate (``IP_Power``)
that drops a power datagram whenever the wireless interface's transmit queue
is at or above a threshold, and a router that runs one injector per
non-overlapping 2.4 GHz channel so the *cumulative* occupancy approaches a
continuous transmission.
"""
