"""802.11 MAC/PHY substrate.

A discrete-event model of the 802.11b/g DCF: per-channel shared media with
carrier sense, DIFS/SIFS/slotted binary-exponential backoff, standards-correct
airtime math for DSSS and ERP-OFDM rates, beaconing, unicast retransmission,
Minstrel-style rate adaptation, and a monitor-mode capture that writes
radiotap pcap files — everything the PoWiFi router design in
:mod:`repro.core` sits on.
"""
