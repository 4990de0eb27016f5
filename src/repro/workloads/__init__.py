"""Workload generators: office background traffic, the Alexa top-10 page
models, and the six-home deployment profiles of Table 1."""
