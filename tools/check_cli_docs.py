#!/usr/bin/env python3
"""Check that every CLI flag the docs mention actually exists.

The markdown under the repo root and ``docs/`` quotes ``repro`` command
lines and flag tables extensively; when a flag is renamed or removed the
docs silently rot. This checker extracts every ``--flag`` token from the
given markdown files and validates it against the set of flags the CLI
parsers actually define — the same information ``python -m repro <sub>
--help`` prints, collected statically (via ``ast``) from the parser
modules so the check needs no subprocesses and stays fast enough for CI
and a pre-commit hook.

Known-flag sources:

* ``src/repro/cli.py`` — the base parser and every subcommand parser
  (``run-all``, ``metrics``, ``profile``, ``watch``, ``trace``, ``spans``,
  ``compare``), plus the pre-parse ``--no-obs`` escape hatch;
* ``src/repro/lint/cli.py`` — the ``lint`` subcommand.

Flags that belong to other tools quoted in the docs (pytest plugins and
the like) are allowlisted explicitly in :data:`EXTERNAL_FLAGS` so a typo
cannot hide behind a wildcard.

Used by the CI ``docs`` job and ``tests/test_docs_cli.py``::

    python tools/check_cli_docs.py            # default file set
    python tools/check_cli_docs.py docs/running.md
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

#: A long-option token as the docs write them: --jobs, --no-cache, ...
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: Fenced code block delimiter (flags inside fences are still checked —
#: quoted command lines are exactly what rots).
EXTERNAL_FLAGS = {
    # pytest-benchmark, quoted in README/EXPERIMENTS for regenerating rows.
    "--benchmark-only",
}

#: CLI modules that define parsers, relative to the repo root.
PARSER_SOURCES = (
    Path("src") / "repro" / "cli.py",
    Path("src") / "repro" / "lint" / "cli.py",
)

#: Flags handled outside argparse (stripped before dispatch in cli.main),
#: plus the option argparse adds to every parser on its own.
PREPARSE_FLAGS = {"--no-obs", "--help"}

#: Root-level scaffolding that quotes *other* projects' command lines
#: (exemplar snippets, the working issue, review notes, which also quote
#: the flags of helper scripts); not user-facing documentation.
SKIP_FILES = {
    "SNIPPETS.md", "ISSUE.md", "REVIEW.md", "PAPERS.md", "PAPER.md", "CHANGES.md",
}


def repo_root() -> Path:
    """The repository root (this script lives in ``<root>/tools/``)."""
    return Path(__file__).resolve().parent.parent


def default_files(root: Path) -> List[Path]:
    """The markdown set the docs CI job guards."""
    files = sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md"))
    return [
        path for path in files if path.is_file() and path.name not in SKIP_FILES
    ]


def known_flags(root: Path) -> Set[str]:
    """Every ``--flag`` the CLI parsers register, plus pre-parse flags.

    Walks the parser modules' ASTs for ``*.add_argument("--flag", ...)``
    calls; string positional arguments starting with ``--`` are option
    names by argparse's contract.
    """
    flags: Set[str] = set(PREPARSE_FLAGS)
    for relative in PARSER_SOURCES:
        source = (root / relative).read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(relative))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                continue
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                ):
                    flags.add(arg.value)
    return flags


def doc_flags(files: Iterable[Path]) -> Dict[str, List[Tuple[Path, int]]]:
    """Map each ``--flag`` token in the docs to its ``(file, line)`` sites."""
    sites: Dict[str, List[Tuple[Path, int]]] = {}
    for path in files:
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for match in FLAG_RE.finditer(line):
                sites.setdefault(match.group(0), []).append((path, number))
    return sites


def stale_flags(files: Iterable[Path], flags: Set[str]) -> List[str]:
    """``"file:line: flag"`` for every doc flag the CLI does not define."""
    problems = []
    for flag, locations in sorted(doc_flags(files).items()):
        if flag in flags or flag in EXTERNAL_FLAGS:
            continue
        for path, number in locations:
            problems.append(f"{path}:{number}: unknown CLI flag {flag}")
    return problems


def main(argv: List[str]) -> int:
    root = repo_root()
    files = [Path(arg) for arg in argv] if argv else default_files(root)
    missing = [str(path) for path in files if not path.is_file()]
    if missing:
        print("no such file(s): " + ", ".join(missing), file=sys.stderr)
        return 2
    flags = known_flags(root)
    problems = stale_flags(files, flags)
    for problem in problems:
        print(problem, file=sys.stderr)
    referenced = doc_flags(files)
    print(
        f"checked {sum(len(v) for v in referenced.values())} flag references "
        f"({len(referenced)} distinct) across {len(list(files))} files "
        f"against {len(flags)} CLI flags: {len(problems)} unknown"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
