"""The PoWiFi RF harvester: matching network, rectifier, DC–DC, storage.

Circuit-level models of the §3.1 hardware. The guiding constraint is the
paper's co-design insight: the DC–DC converter's input loading sets the
rectifier's RF input impedance, which is what lets a single-stage LC match
(6.8 nH + 1.5 pF / 1.3 pF) hold return loss below −10 dB across the whole
72 MHz Wi-Fi band (Fig 9). Component values and anchor points come from the
datasheets the paper cites (SMS7630 diodes, Seiko S-882Z, TI bq25570) and
from the measured curves in Figs 10–12.
"""
