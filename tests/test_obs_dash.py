"""Unit tests for the static HTML run observatory (`repro.obs.dash`).

The dashboard's contract: one self-contained file (no scripts, no
network), every charted value also present as text, pure build (equal
inputs → byte-identical output), graceful degradation when sidecar
artifacts are missing.
"""

import json
import re
from html.parser import HTMLParser

import pytest

from repro.errors import ObservabilityError
from repro.obs.dash import DASH_FILENAME, build_dash, sparkline, write_dash


def stub_manifest():
    """A v5-shaped manifest exercising every dashboard section."""
    return {
        "schema": 5,
        "seed": 0,
        "jobs": 2,
        "code_fingerprint": "abcdef0123456789",
        "totals": {
            "experiments": 2,
            "ok": 2,
            "wall_s": 3.25,
            "cache_hits": 1,
            "events_dispatched": 1234,
            "retried_parts": 1,
        },
        "slo": {
            "schema": 1,
            "specs": ["slos/fig7.json"],
            "counts": {"ok": 1, "violated": 1, "skipped": 1},
            "ok": False,
            "objectives": [
                {
                    "experiment": "fig7",
                    "id": "channel.occupancy.cumulative_mean",
                    "metric": "channel.occupancy.cumulative.mean",
                    "kind": "threshold",
                    "op": ">=",
                    "value": 1.0,
                    "status": "ok",
                    "actual": 1.246,
                    "margin": 0.246,
                    "worst_window": None,
                },
                {
                    "experiment": "fig7",
                    "id": "channel.occupancy.worst_window",
                    "kind": "window",
                    "op": ">=",
                    "value": 1.0,
                    "status": "violated",
                    "actual": 0.8,
                    "margin": -0.2,
                    "worst_window": {"start_s": 1.0, "end_s": 3.5, "value": 0.8},
                },
                {
                    "experiment": "fig12",
                    "id": "camera.battery_free.range",
                    "kind": "threshold",
                    "op": ">=",
                    "value": 16.0,
                    "status": "skipped",
                    "actual": None,
                    "margin": None,
                    "worst_window": None,
                    "reason": "experiment not in run",
                },
            ],
        },
        "experiments": [
            {
                "id": "fig7",
                "error": None,
                "domain": {
                    "channel.occupancy.cumulative.mean": 1.246,
                    "channel.occupancy.cumulative.series": {
                        "window_s": 0.5,
                        "samples": [1.1, 1.3, 1.2, 1.4],
                    },
                },
                "parts": [
                    {
                        "part": "all",
                        "attempts": 2,
                        "failure_kind": None,
                        "engine": {
                            "profile": {
                                "router.packet": {
                                    "component": "router",
                                    "count": 900,
                                    "wall_s": 0.9,
                                },
                                "harvester.tick": {
                                    "component": "harvester",
                                    "count": 100,
                                    "wall_s": 0.1,
                                },
                            }
                        },
                    }
                ],
            },
        ],
        "spans": {
            "records": [
                {"name": "run.experiment", "wall_s": 1.5, "attrs": {"experiment": "fig7"}},
                {"name": "merge.results", "wall_s": 0.25, "attrs": {}},
            ]
        },
        "faults": {"events": [{"point": "worker.crash", "task": "fig7:all"}]},
    }


def stub_history():
    return [
        {
            "totals": {"wall_s": 4.0},
            "experiments": {"fig7": {"wall_s": 2.0, "cache_hit": False}},
        },
        {
            "totals": {"wall_s": 3.25},
            "experiments": {"fig7": {"wall_s": 1.5, "cache_hit": False}},
        },
    ]


class TagBalanceChecker(HTMLParser):
    """Fails on mismatched close tags and reports unclosed ones."""

    VOID = {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "source", "track", "wbr", "circle", "polyline",
        "path", "rect", "line", "stop", "use",
    }

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        pass  # <polyline ... /> opens and closes itself

    def handle_endtag(self, tag):
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unexpected </{tag}> (stack: {self.stack[-3:]})")
        else:
            self.stack.pop()


def assert_well_formed(page):
    checker = TagBalanceChecker()
    checker.feed(page)
    assert not checker.errors, checker.errors
    assert not checker.stack, f"unclosed tags: {checker.stack}"


class TestSparkline:
    def test_empty_series_renders_nothing(self):
        assert sparkline([]) == ""

    def test_svg_carries_title_tooltip_and_marks(self):
        svg = sparkline([1.0, 2.0, 1.5], title="demo series")
        assert svg.startswith("<svg")
        assert "<title>demo series</title>" in svg
        assert 'stroke-width="2"' in svg  # 2px line
        assert 'r="4"' in svg  # end dot with surface ring
        assert "<script" not in svg

    def test_flat_series_draws_midline_not_nan(self):
        svg = sparkline([3.0, 3.0, 3.0])
        assert "nan" not in svg.lower()
        assert "18.0" in svg  # midline of the default 36px height


class TestBuildDash:
    def test_all_sections_present(self):
        page = build_dash(stub_manifest(), stub_history())
        for heading in (
            "SLO scorecard",
            "Domain metric streams",
            "Perf history trend",
            "Span flame summary",
            "Per-kind attribution",
            "Fault &amp; retry timeline",
        ):
            assert heading in page, heading
        # SLO hero: 1 ok of 2 evaluated (skips excluded).
        assert "1/2" in page
        assert "PASS" in page and "VIOLATED" in page and "SKIPPED" in page

    def test_charted_values_also_appear_as_text(self):
        page = build_dash(stub_manifest(), stub_history())
        assert "1.246" in page  # SLO actual
        assert "1.5000 s" in page  # top span wall
        assert "router.packet" in page and "900" in page  # attribution

    def test_self_contained_no_scripts_or_network(self):
        page = build_dash(stub_manifest(), stub_history())
        lowered = page.lower()
        assert "<script" not in lowered
        assert "http://" not in lowered and "https://" not in lowered
        assert "@import" not in lowered and "url(" not in lowered
        assert "prefers-color-scheme: dark" in page  # dark palette shipped

    def test_well_formed_html(self):
        assert_well_formed(build_dash(stub_manifest(), stub_history()))
        assert_well_formed(build_dash({}))  # empty manifest degrades

    def test_pure_equal_inputs_byte_identical(self):
        args = (stub_manifest(), stub_history())
        assert build_dash(*args) == build_dash(*args)

    def test_empty_manifest_degrades_with_placeholders(self):
        page = build_dash({})
        assert "No SLO specs were evaluated" in page
        assert "No perf_history.jsonl found" in page
        assert "Span flame summary" not in page  # empty sections vanish

    def test_interrupted_flag_surfaces(self):
        manifest = stub_manifest()
        manifest["interrupted"] = True
        assert "INTERRUPTED" in build_dash(manifest)


class TestAttributionAgreesWithProfile:
    def test_card_lists_the_profilers_rows(self):
        """Kinds spread over two parts fold the same way in the dash card
        as in ``repro profile``: same kinds, counts, walls and order."""
        from repro.obs.profile import aggregate_rows, rows_from_manifest, sort_rows

        manifest = stub_manifest()
        second = {
            "part": "tail",
            "engine": {
                "profile": {
                    "router.packet": {
                        "component": "router", "count": 50, "wall_s": 0.25
                    },
                    "mac.tx": {"component": "mac", "count": 700, "wall_s": 0.5},
                }
            },
        }
        manifest["experiments"][0]["parts"].append(second)
        expected = [
            (row.kind, f"{row.count:,}", f"{row.wall_s:.4f} s")
            for row in sort_rows(aggregate_rows(rows_from_manifest(manifest)))
        ]
        page = build_dash(manifest)
        card = page[page.index("Per-kind attribution") :]
        card = card[: card.index("</table>")]
        shown = [
            (cells[0], cells[2], cells[4])
            for cells in (
                re.findall(r"<td[^>]*>(.*?)</td>", row)
                for row in card.split("<tr>")[2:]
            )
        ]
        assert shown == expected
        kinds = [kind for kind, _, _ in shown]
        assert kinds == ["router.packet", "mac.tx", "harvester.tick"]
        assert shown[0][1] == "950"


class TestWriteDash:
    def test_writes_page_with_default_sidecar_discovery(self, tmp_path, monkeypatch):
        from repro.defaults import DEFAULT_HISTORY_DIR
        from repro.obs.history import HISTORY_FILENAME

        monkeypatch.chdir(tmp_path)
        manifest_path = tmp_path / "run_manifest.json"
        manifest_path.write_text(json.dumps(stub_manifest()))
        history_path = tmp_path / DEFAULT_HISTORY_DIR / HISTORY_FILENAME
        history_path.parent.mkdir(parents=True)
        history_path.write_text(
            "\n".join(json.dumps(record) for record in stub_history()) + "\n"
        )
        out = write_dash(manifest_path, out_path=tmp_path / DASH_FILENAME)
        page = (tmp_path / DASH_FILENAME).read_text()
        assert out == str(tmp_path / DASH_FILENAME)
        # History sidecar found at its default location.
        assert "No perf_history.jsonl found" not in page
        assert "2 run(s)" in page
        assert_well_formed(page)

    def test_missing_sidecars_degrade(self, tmp_path):
        manifest_path = tmp_path / "run_manifest.json"
        manifest_path.write_text(json.dumps(stub_manifest()))
        out = tmp_path / "out.html"
        write_dash(
            manifest_path,
            out_path=out,
            history_path=tmp_path / "absent.jsonl",
        )
        page = out.read_text()
        assert "No perf_history.jsonl found" in page

    def test_malformed_sidecar_line_raises(self, tmp_path):
        manifest_path = tmp_path / "run_manifest.json"
        manifest_path.write_text(json.dumps(stub_manifest()))
        history_path = tmp_path / "perf_history.jsonl"
        history_path.write_text('{"totals": {}}\nnot json\n')
        with pytest.raises(ObservabilityError, match=r"jsonl:2: malformed history record"):
            write_dash(
                manifest_path, out_path=tmp_path / "x.html", history_path=history_path
            )

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(OSError):
            write_dash(tmp_path / "absent.json", out_path=tmp_path / "x.html")
