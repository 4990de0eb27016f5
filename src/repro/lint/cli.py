"""``python -m repro lint`` — the static-analysis subcommand.

Exit codes: 0 clean (or everything baselined), 1 active error findings,
2 usage errors.

Every run is one pass (:func:`repro.lint.engine.lint_paths`): the
per-file PW0xx rules, the interprocedural PW1xx rules over the project
index, and the spec-JSON checks, with an incremental cache so warm runs
skip parsing unchanged modules. Reports render as human text, one JSON
document, or SARIF 2.1.0 for GitHub PR annotations.

Building the ``repro`` parser imports only this module; the engine loads
when :func:`run` does.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional


#: The ``repro lint --help`` description.
DESCRIPTION = (
    "Static analysis enforcing the simulator's determinism, "
    "seeded-RNG and unit-discipline invariants (see docs/lint.md)."
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Add every ``repro lint`` argument to ``parser``."""
    # Exact flags only: a prefix such as ``--flow`` must not silently
    # parse as ``--flow-cache PATH``.
    parser.allow_abbrev = False
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (sarif feeds GitHub code-scanning annotations)",
    )
    parser.add_argument(
        "--no-flow-cache",
        action="store_true",
        help="ignore and do not write the incremental cache",
    )
    parser.add_argument(
        "--flow-cache",
        default=None,
        metavar="PATH",
        help=(
            "incremental cache file "
            "(default: .repro_cache/flow_index.json under the config root)"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file (default: [tool.repro-lint] baseline setting)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report and gate on every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current findings to the baseline file and exit",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "drop baseline entries matching no current finding, then "
            "report as usual (run over the full baselined tree, or "
            "still-valid entries for unlinted paths would be dropped)"
        ),
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help="explicit pyproject.toml (default: discovered from cwd)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` as ``repro lint`` arguments and run the linter."""
    parser = argparse.ArgumentParser(prog="repro lint", description=DESCRIPTION)
    add_arguments(parser)
    return run(parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Run the linter on parsed ``repro lint`` arguments; the exit code."""
    from dataclasses import replace

    from repro.lint import baseline as baseline_mod
    from repro.lint.config import load_config
    from repro.lint.engine import active_errors, lint_paths
    from repro.lint.findings import render_json, render_text
    from repro.lint.sarif import render_sarif

    config = load_config(
        pyproject=Path(args.config) if args.config else None
    )
    if args.baseline:
        config = replace(config, baseline=args.baseline)

    use_baseline = not args.no_baseline
    findings, stats = lint_paths(
        args.paths,
        config=config,
        use_baseline=use_baseline,
        use_cache=not args.no_flow_cache,
        cache_path=Path(args.flow_cache) if args.flow_cache else None,
    )
    print(stats.summary(), file=sys.stderr)

    if args.write_baseline:
        count = baseline_mod.write_baseline(findings, config.baseline_path)
        print(f"wrote {count} entries to {config.baseline_path}")
        print("fill in each entry's justification before committing")
        return 0

    # Staleness is judged only against files this run actually linted
    # (a subtree run says nothing about entries for paths it never saw).
    covered = set(stats.linted)
    if args.prune_baseline:
        removed = baseline_mod.prune_baseline(
            findings, config.baseline_path, covered
        )
        print(
            f"pruned {removed} stale entr{'y' if removed == 1 else 'ies'} "
            f"from {config.baseline_path}",
            file=sys.stderr,
        )
    elif use_baseline:
        known = baseline_mod.load_baseline(config.baseline_path)
        for entry in baseline_mod.stale_entries(findings, known, covered):
            print(
                f"warning: stale baseline entry {entry.get('fingerprint')} "
                f"({entry.get('code')} at {entry.get('path')}) matches no "
                "current finding — fix committed? run --prune-baseline "
                "to drop it",
                file=sys.stderr,
            )

    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        print(render_text(findings))
    errors = active_errors(findings)
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
