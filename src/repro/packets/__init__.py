"""Byte-level packet and frame codecs.

The paper measures channel occupancy by capturing radiotap-tagged 802.11
frames with tcpdump and post-processing them with tshark. This package
reproduces that pipeline in pure Python: 802.11 MAC headers, radiotap capture
headers, LLC/SNAP, IPv4 (including the custom ``IP_Power`` option the PoWiFi
kernel patch uses to mark power datagrams), UDP, and the classic pcap
container. The MAC simulator emits real frame bytes through these codecs and
the occupancy analyzer parses them back, so the measurement path is exercised
end to end.
"""
