"""Discrete-event simulation engine.

The engine is deliberately small: an event heap with deterministic
tie-breaking, named pseudo-random streams for reproducibility, and a trace
recorder. Everything in the MAC, network-stack and harvester simulators is
built on these primitives.
"""
