#!/usr/bin/env python3
"""Check that every CLI flag the docs mention exists where it is quoted.

The markdown under the repo root and ``docs/`` quotes ``repro`` command
lines and flag tables extensively; when a flag is renamed, removed or
only exists on another subcommand, the docs silently rot. This checker
takes the flag sets from the CLI's own parser tree —
``repro.cli.build_parser()``, one set per subcommand path such as
``run-all``, ``campaign run`` or ``fig7`` — which is exactly what
``python -m repro <sub> --help`` prints, without running a subprocess.
Each ``--flag`` token in the given markdown files is then checked:

* a flag quoted after ``repro <sub>`` on the same line, up to the end of
  that code span, table cell or line, must be one of ``<sub>``'s flags;
* any other flag must belong to some subcommand.

Flags that belong to other tools quoted in the docs (pytest plugins and
the like) are allowlisted explicitly in :data:`EXTERNAL_FLAGS` so a typo
cannot hide behind a wildcard.

Used by the CI ``docs`` job and ``tests/test_docs_cli.py``::

    python tools/check_cli_docs.py            # default file set
    python tools/check_cli_docs.py docs/running.md
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: A long-option token as the docs write them: --jobs, --no-cache, ...
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: ``repro <sub> [<verb>]`` as quoted in a command line.
COMMAND_RE = re.compile(r"\brepro\s+([a-z][\w-]*)(?:\s+([a-z][\w-]*))?")

#: Where a quoted command ends: its code span, its table cell, or the line.
COMMAND_END_RE = re.compile(r"[`|]")

#: Flags of other tools quoted in the docs (flags inside code fences are
#: checked too — quoted command lines are exactly what rots).
EXTERNAL_FLAGS = {
    # pytest-benchmark, quoted in README/EXPERIMENTS for regenerating rows.
    "--benchmark-only",
}

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


def command_flags(root: Path) -> Dict[str, Set[str]]:
    """Each subcommand path of ``repro.cli.build_parser()`` -> its flags."""
    source = str(root / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    from repro.cli import build_parser, walk_commands

    return {
        path: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        for path, _, parser in walk_commands(build_parser())
    }


def known_flags(root: Path) -> Set[str]:
    """Every ``--flag`` some subcommand of the CLI defines."""
    return set().union(*command_flags(root).values())


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


def quoted_commands(line: str, commands: Iterable[str]) -> Iterable[Tuple[str, str]]:
    """``(subcommand path, text quoted after it)`` for each ``repro <sub>``."""
    from repro.experiments.registry import normalize_experiment_id

    mentions = list(COMMAND_RE.finditer(line))
    for index, match in enumerate(mentions):
        sub, verb = normalize_experiment_id(match.group(1)), match.group(2)
        path = f"{sub} {verb}" if f"{sub} {verb}" in commands else sub
        if path not in commands:
            continue
        stop = mentions[index + 1].start() if index + 1 < len(mentions) else len(line)
        end = COMMAND_END_RE.search(line, match.end(), stop)
        yield path, line[match.end():end.start() if end else stop]


def stale_flags(
    files: Iterable[Path],
    flags: Set[str],
    commands: Optional[Dict[str, Set[str]]] = None,
) -> List[str]:
    """``"file:line: ..."`` for every doc flag the CLI does not define.

    ``flags`` is every known flag; ``commands`` (default: the CLI's own
    tree) maps subcommand paths to their flags, and a known flag quoted
    after ``repro <sub>`` is reported when ``<sub>`` does not take it.
    """
    files = list(files)
    if commands is None:
        commands = command_flags(repo_root())
    problems = []
    for flag, locations in sorted(doc_flags(files).items()):
        if flag in flags or flag in EXTERNAL_FLAGS:
            continue
        for path, number in locations:
            problems.append(f"{path}:{number}: unknown CLI flag {flag}")
    for path in files:
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for command, quoted in quoted_commands(line, commands):
                for match in FLAG_RE.finditer(quoted):
                    flag = match.group(0)
                    if flag in flags and flag not in commands[command]:
                        problems.append(
                            f"{path}:{number}: {flag} is not a flag of "
                            f"'repro {command}'"
                        )
    return problems


def main(argv: List[str]) -> int:
    root = repo_root()
    files = [Path(arg) for arg in argv] if argv else default_files(root)
    missing = [str(path) for path in files if not path.is_file()]
    if missing:
        print("no such file(s): " + ", ".join(missing), file=sys.stderr)
        return 2
    commands = command_flags(root)
    flags = set().union(*commands.values())
    problems = stale_flags(files, flags, commands)
    for problem in problems:
        print(problem, file=sys.stderr)
    referenced = doc_flags(files)
    print(
        f"checked {sum(len(v) for v in referenced.values())} flag references "
        f"({len(referenced)} distinct) across {len(files)} files "
        f"against {len(flags)} CLI flags of {len(commands)} subcommands: "
        f"{len(problems)} problems"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
