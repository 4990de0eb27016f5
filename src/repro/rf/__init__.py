"""RF propagation substrate.

Models the physical link between the PoWiFi router and a harvester: path
loss (Friis free-space and log-distance), antenna gains, and the wall
materials used in the paper's through-the-wall camera experiments (Fig. 13).
"""
