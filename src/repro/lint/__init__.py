"""``repro.lint``: project-specific static analysis for the simulator.

The reproduction rests on two silent contracts:

* **Determinism** — every result (occupancy, fairness, harvested energy) is
  bit-reproducible from a seed. Nothing inside the simulator may read the
  wall clock, draw from the process-global RNG, or iterate a ``set`` where
  the order can leak into event scheduling.
* **Unit discipline** — every quantity crossing an API boundary is in the
  canonical unit (watts / metres / seconds, see :mod:`repro.units`); log
  and imperial quantities exist only at the edges, converted explicitly.

Conventions rot; this package turns them into an AST-based lint with stable
``PW###`` codes, ``# lint: ignore[PW###]`` pragmas, a ``[tool.repro-lint]``
config table in ``pyproject.toml``, and a committed baseline for
grandfathered findings. Run it as ``python -m repro lint [paths]``; the
driver is :func:`repro.lint.engine.lint_paths`.

The package itself imports nothing: ``repro.cli`` imports
:mod:`repro.lint.cli` to build its parser, and only running the linter
loads the engine.

Not to be confused with :mod:`repro.analysis`, which is the *statistics*
module (CDFs, percentiles, grid bisection) used by the experiment drivers;
``repro.lint`` analyses the *source tree* and never runs at simulation time.
The two are independent and can be imported side by side.
"""
