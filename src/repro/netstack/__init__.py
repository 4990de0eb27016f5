"""IP and transport-layer substrate.

Models the pieces of the Linux network stack the PoWiFi kernel patch touches
(the per-interface device transmit queue whose depth gates power packets) and
the traffic sources the evaluation uses: iperf-style UDP and TCP flows and a
PhantomJS-style page-load harness.
"""
