"""Every CLI flag the docs mention must exist (mirrors the CI docs job)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_cli_docs  # noqa: E402


def test_all_documented_flags_exist():
    files = check_cli_docs.default_files(ROOT)
    assert any(path.name == "running.md" for path in files)
    flags = check_cli_docs.known_flags(ROOT)
    problems = check_cli_docs.stale_flags(files, flags)
    assert not problems, "\n".join(problems)


def test_parser_extraction_sees_the_real_flag_set():
    flags = check_cli_docs.known_flags(ROOT)
    # Spot-check one flag per parser family so a refactor that moves a
    # parser out of the scanned modules cannot silently empty the set.
    for expected in ("--jobs", "--no-cache", "--flame", "--threshold",
                     "--flow-cache", "--no-obs"):
        assert expected in flags, f"{expected} missing from extracted flags"
    assert len(flags) >= 30


def test_docs_reference_a_real_flag_population():
    files = check_cli_docs.default_files(ROOT)
    references = check_cli_docs.doc_flags(files)
    assert len(references) >= 20, "flag checker is scanning too little"


def test_checker_catches_a_stale_flag(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("run with `--jobs 4` and the old `--no-such-flag`\n")
    flags = check_cli_docs.known_flags(ROOT)
    problems = check_cli_docs.stale_flags([page], flags)
    assert len(problems) == 1 and "--no-such-flag" in problems[0]


def test_external_tool_flags_are_allowlisted(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("pytest benchmarks/ --benchmark-only\n")
    flags = check_cli_docs.known_flags(ROOT)
    assert check_cli_docs.stale_flags([page], flags) == []


def test_checker_catches_a_flag_of_another_subcommand(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("tail the stream with `repro watch --heartbeat 2`\n")
    flags = check_cli_docs.known_flags(ROOT)
    problems = check_cli_docs.stale_flags([page], flags)
    assert len(problems) == 1 and "--heartbeat" in problems[0]
    assert "'repro watch'" in problems[0]
