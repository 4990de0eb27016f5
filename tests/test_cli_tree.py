"""The ``python -m repro`` command tree: help, roster and shared run flags."""

import os

import pytest

import repro.campaign
import repro.runner
from repro.cli import build_parser, main, walk_commands
from repro.errors import ConfigurationError

PATHS = [path for path, _, _ in walk_commands(build_parser())]


@pytest.mark.parametrize("path", ["", *PATHS])
def test_every_subcommand_has_help(path, capsys):
    assert main([*path.split(), "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {path}".rstrip())


def test_help_and_list_name_every_subcommand(capsys):
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    assert main(["list"]) == 0
    roster = capsys.readouterr().out
    assert "campaign run" in roster and "lint" in roster
    for path in PATHS:
        assert f"  {path} " in roster, path
        if " " not in path:
            assert f"\n    {path} " in help_text or f"\n    {path}\n" in help_text, path


@pytest.mark.parametrize(
    "argv, leaf, extras",
    [
        (["fig5", "--duration", "9"], "fig5", "--duration 9"),
        (["fig05", "--duration", "9"], "fig5", "--duration 9"),
        (["campaign", "run", "--spec", "x.json", "--bogus"], "campaign run", "--bogus"),
        (["list", "--seed", "3"], "list", "--seed 3"),
    ],
)
def test_unknown_flags_report_the_subcommand_usage(argv, leaf, extras, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: repro {leaf} ["), err
    assert f"repro {leaf}: error: unrecognized arguments: {extras}" in err


RUN_FLAGS = [
    "--seed", "4", "--jobs", "3", "--no-cache", "--cache-dir", "cc",
    "--retries", "2", "--task-timeout", "7.5",
    "--fault-plan", "worker.crash:1", "--fault-seed", "9",
]


@pytest.fixture
def captured(monkeypatch):
    """Record the keyword arguments run_all / run_campaign receive."""
    calls = {}

    def fake(name):
        def entry(*args, **kwargs):
            calls[name] = kwargs
            raise ConfigurationError("stopped before running")

        return entry

    monkeypatch.setattr(repro.runner, "run_all", fake("run_all"))
    monkeypatch.setattr(repro.campaign, "run_campaign", fake("run_campaign"))
    monkeypatch.setattr(repro.campaign, "load_campaign_spec", lambda path: path)
    return calls


def _shared(kwargs):
    plan = kwargs["fault_plan"]
    journal = kwargs.get("journal")
    return {
        key: kwargs[key]
        for key in ("jobs", "use_cache", "cache_dir", "seed", "retries", "task_timeout_s")
    }, (plan and plan.seed), str(journal.path if journal else kwargs["journal_path"])


def test_run_flags_reach_both_entry_points_alike(tmp_path, captured):
    report = str(tmp_path / "m.json")
    assert main(["run-all", *RUN_FLAGS, "--report", report]) == 2
    assert main(["campaign", "run", "--spec", "s.json", *RUN_FLAGS, "--report", report]) == 2
    shared = (
        {"jobs": 3, "use_cache": False, "cache_dir": "cc", "seed": 4,
         "retries": 2, "task_timeout_s": 7.5},
        9,
    )
    # Each command journals next to its report: run_journal.jsonl for
    # run-all, campaign.jsonl for a campaign.
    assert _shared(captured["run_all"]) == (
        *shared, os.path.join(str(tmp_path), "run_journal.jsonl")
    )
    assert _shared(captured["run_campaign"]) == (
        *shared, os.path.join(str(tmp_path), "campaign.jsonl")
    )


def test_run_flag_defaults_per_subcommand(captured, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run-all"]) == 2
    assert main(["campaign", "run", "--spec", "s.json"]) == 2
    run_all, campaign = captured["run_all"], captured["run_campaign"]
    assert _shared(run_all) == (
        {"jobs": None, "use_cache": True, "cache_dir": ".repro_cache", "seed": 0,
         "retries": 0, "task_timeout_s": None},
        None,
        os.path.abspath("run_journal.jsonl"),
    )
    assert _shared(campaign)[0] == {**_shared(run_all)[0], "retries": 1}
    assert campaign["heartbeat_s"] == 2.0 and campaign["resume"] is True
    assert campaign["journal_path"] == os.path.abspath("campaign.jsonl")


def test_live_flag_is_gone():
    tree = {path: sub for path, _, sub in walk_commands(build_parser())}
    for path in ("run-all", "campaign run"):
        flags = {flag for action in tree[path]._actions for flag in action.option_strings}
        assert "--live" not in flags, path


def test_file_defaults_match_the_library():
    from repro.campaign.manager import MANIFEST_FILENAME as CAMPAIGN_MANIFEST
    from repro.obs.dash import DASH_FILENAME
    from repro.runner import DEFAULT_CACHE_DIR, MANIFEST_FILENAME

    tree = {path: sub for path, _, sub in walk_commands(build_parser())}
    for path, dest, expected in [
        ("run-all", "report", MANIFEST_FILENAME),
        ("run-all", "cache_dir", DEFAULT_CACHE_DIR),
        ("campaign run", "report", CAMPAIGN_MANIFEST),
        ("campaign run", "cache_dir", DEFAULT_CACHE_DIR),
        ("campaign results", "input", CAMPAIGN_MANIFEST),
        ("slo", "input", MANIFEST_FILENAME),
        ("dash", "input", MANIFEST_FILENAME),
        ("dash", "out", DASH_FILENAME),
    ]:
        assert tree[path].get_default(dest) == expected, (path, dest)


def test_building_the_parser_leaves_the_lint_engine_unloaded():
    import subprocess
    import sys

    probe = (
        "import sys, repro.cli as cli; cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.startswith('repro.lint')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    for module in ("repro.lint.engine", "repro.lint.rules", "repro.lint.config"):
        assert f"'{module}'" not in loaded, loaded
    assert "'repro.lint.cli'" in loaded
