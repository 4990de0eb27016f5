"""Defaults that command-line flags show and the modules behind them use.

Building the ``python -m repro`` parser needs these values for its help
text, so they live here, in a module that imports nothing, rather than in
the modules that act on them (which re-export them).
"""

#: Relative wall-clock slowdown beyond which an experiment is a regression.
DEFAULT_WALL_THRESHOLD = 0.25

#: Experiments faster than this (in *both* runs) are never wall-flagged:
#: interpreter jitter dominates below it.
DEFAULT_MIN_WALL_S = 0.5

#: Default location the BENCH trajectory accumulates in.
DEFAULT_HISTORY_DIR = "benchmarks/results"

#: The journal ``run-all`` writes next to its manifest, started empty each run.
RUN_JOURNAL_FILENAME = "run_journal.jsonl"
