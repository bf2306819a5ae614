"""Tests for the report renderers, the CLI, and longitudinal snapshots."""

import pytest

from repro.__main__ import build_parser, main
from repro.api import Study
from repro.core.longitudinal import (
    Snapshot,
    adoption_change,
    compare_snapshots,
    run_snapshots,
)
from repro.core.readiness import CensusBreakdown


@pytest.fixture(scope="module")
def study():
    return Study(days=7, sites=300, seed=3, residences=("A", "E"))


class TestReportRenderers:
    def test_table1(self, study):
        text = study.artifact("table1").to_text()
        assert "Table 1" in text
        assert "external" in text and "internal" in text
        assert text.count("\n") >= 5  # header + 2 residences x 2 scopes

    def test_fig5(self, study):
        text = study.artifact("fig5").to_text()
        for label in ("IPv4-only", "IPv6-partial", "IPv6-full", "NXDOMAIN"):
            assert label in text

    def test_fig6(self, study):
        text = study.artifact("fig6").to_text()
        assert "top N" in text
        assert "%" in text

    def test_dependencies(self, study):
        text = study.artifact("deps").to_text()
        assert "IPv6-partial sites" in text
        assert "span" in text

    def test_table3(self, study):
        text = study.artifact("table3").to_text()
        assert "Overall" in text
        assert "Cloudflare" in text

    def test_table2(self, study):
        text = study.artifact("table2", min_domains=1).to_text()
        assert "policy" in text
        assert "default-on" in text


class TestCli:
    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--days", "3"])
        assert args.artifacts == ["table1"]
        assert args.days == 3

    def test_parser_rejects_unknown(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["nonsense"])

    def test_main_single_artifact(self, capsys):
        code = main(["fig5", "--sites", "200", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_main_deduplicates(self, capsys):
        code = main(["fig6", "fig6", "--sites", "200", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("Figure 6") == 1

    def test_main_traffic_artifact(self, capsys):
        code = main(["table1", "--days", "3", "--seed", "5"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out


class TestLongitudinal:
    @pytest.fixture(scope="class")
    def snapshots(self):
        return run_snapshots(
            labels=("t0", "t1"), num_sites=250, seed=9, drift_per_round=0.05
        )

    def test_rounds_built(self, snapshots):
        assert [s.label for s in snapshots] == ["t0", "t1"]
        for snapshot in snapshots:
            snapshot.breakdown.check_invariants()

    def test_adoption_moves_forward(self, snapshots):
        assert adoption_change(snapshots) >= 0.0

    def test_same_population_each_round(self, snapshots):
        first, last = snapshots[0].breakdown, snapshots[-1].breakdown
        assert first.total == last.total
        assert first.nxdomain == last.nxdomain  # same dead sites

    def test_compare_renders_change_column(self, snapshots):
        text = compare_snapshots(snapshots)
        assert "Change (pp)" in text
        assert "IPv6-full" in text

    def test_rounds_without_a_connected_site(self):
        """A one-site list whose site is NXDOMAIN connects nothing in any
        round; every share reads as zero instead of dividing by it."""
        dead = CensusBreakdown(total=1, nxdomain=1)
        snapshots = [Snapshot("t0", dead), Snapshot("t1", dead)]
        assert adoption_change(snapshots) == 0.0
        assert "+0.0" in compare_snapshots(snapshots)
        rounds = run_snapshots(labels=("t0", "t1"), num_sites=1, seed=6)
        assert [s.breakdown.nxdomain for s in rounds] == [1, 1]
        assert adoption_change(rounds) == 0.0

    def test_cli_one_dead_site(self, capsys):
        assert main(["longitudinal", "--sites", "1", "--seed", "6", "--days", "1"]) == 0
        assert "Change (pp)" in capsys.readouterr().out

    def test_validation(self):
        with pytest.raises(ValueError):
            run_snapshots(labels=("only",), num_sites=50, drift_per_round=-0.1)
        with pytest.raises(ValueError):
            compare_snapshots([Snapshot("x", CensusBreakdown(total=0))])
        with pytest.raises(ValueError):
            adoption_change([Snapshot("x", CensusBreakdown(total=0))])
