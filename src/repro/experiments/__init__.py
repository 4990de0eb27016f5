"""Experiment drivers: one per table/figure in the paper's evaluation.

Each driver is used three ways: the test suite asserts the paper's
qualitative claims on small configurations, the benchmark harness
regenerates the full figure rows, and the examples print human-readable
reports. The registry maps experiment ids ("fig5", "table1", ...) to
drivers.
"""
