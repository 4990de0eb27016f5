"""``python -m repro lint`` — the static-analysis subcommand.

Exit codes: 0 clean (or everything baselined), 1 active error findings,
2 usage errors.

Two analysis depths share this entry point: the per-file pass (default)
and the whole-program flow pass (``--flow``), which additionally runs the
interprocedural PW1xx rules over the project index and keeps an
incremental cache so warm runs skip parsing unchanged modules. Reports
render as human text, one JSON document, or SARIF 2.1.0 for GitHub PR
annotations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint import baseline as baseline_mod
from repro.lint.config import load_config
from repro.lint.engine import active_errors, lint_paths
from repro.lint.findings import render_json, render_text
from repro.lint.sarif import render_sarif


#: The ``repro lint --help`` description.
DESCRIPTION = (
    "Static analysis enforcing the simulator's determinism, "
    "seeded-RNG and unit-discipline invariants (see docs/lint.md)."
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Add every ``repro lint`` argument to ``parser``."""
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
        "--flow",
        action="store_true",
        help=(
            "run the whole-program flow analysis (PW1xx rules) in "
            "addition to the per-file rules, with an incremental cache"
        ),
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "with --flow: report only findings in files whose content "
            "changed since the cached run (fast pre-commit mode; not a "
            "CI gate — cross-module findings landing in unchanged files "
            "are withheld from the report)"
        ),
    )
    parser.add_argument(
        "--no-flow-cache",
        action="store_true",
        help="with --flow: ignore and do not write the incremental cache",
    )
    parser.add_argument(
        "--flow-cache",
        default=None,
        metavar="PATH",
        help=(
            "with --flow: cache file location "
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


def _covered_paths(paths: List[str], config) -> set:
    """Root-relative display paths of every file this invocation lints."""
    from repro.lint.engine import display_path, iter_python_files

    return {
        display_path(path, config)
        for path in iter_python_files([Path(p) for p in paths], config)
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` as ``repro lint`` arguments and run the linter."""
    parser = argparse.ArgumentParser(prog="repro lint", description=DESCRIPTION)
    add_arguments(parser)
    return run(parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Run the linter on parsed ``repro lint`` arguments; the exit code."""
    if args.changed and not args.flow:
        print("--changed requires --flow", file=sys.stderr)
        return 2
    if args.changed and args.prune_baseline:
        print(
            "--prune-baseline needs a full run: --changed withholds "
            "findings in unchanged files, which would read as stale",
            file=sys.stderr,
        )
        return 2
    config = load_config(
        pyproject=Path(args.config) if args.config else None
    )
    if args.baseline:
        from dataclasses import replace

        config = replace(config, baseline=args.baseline)

    use_baseline = not args.no_baseline
    if args.flow:
        from repro.lint.flow import flow_lint_paths

        findings, stats = flow_lint_paths(
            args.paths,
            config=config,
            use_baseline=use_baseline,
            use_cache=not args.no_flow_cache,
            cache_path=Path(args.flow_cache) if args.flow_cache else None,
            changed_only=args.changed,
        )
        print(stats.summary(), file=sys.stderr)
    else:
        findings = lint_paths(
            args.paths, config=config, use_baseline=use_baseline
        )

    if args.write_baseline:
        count = baseline_mod.write_baseline(findings, config.baseline_path)
        print(f"wrote {count} entries to {config.baseline_path}")
        print("fill in each entry's justification before committing")
        return 0

    # Staleness is judged only against files this run actually linted
    # (a subtree run says nothing about entries for paths it never saw),
    # and never under --changed (withheld findings are not fixes).
    covered = set() if args.changed else _covered_paths(args.paths, config)
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
