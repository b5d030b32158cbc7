import json

import pytest

from fourphoton import (
    RateModel,
    default_apparatus,
    diagonal_setting,
    exact_outcome_probabilities,
    hv_setting,
    monte_carlo_counts,
)
from fourphoton import cli
from fourphoton.cli import SCENARIOS, main

BEYOND_FLOAT = 10**400  # a JSON integer that no float holds
ZERO_RATES = {"rates": {"fourfold_rate_desired": 0, "background_fourfold_rate": 0}}


def run(args):
    return main(args)


class TestUsage:
    def test_missing_scenario(self, capsys):
        assert run([]) == 1

    def test_unknown_scenario(self, capsys):
        assert run(["--scenario", "frobnicate"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["--scenario", "hv-table", "--nope"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--time", "-5"],
        ["--time", "0"],
        ["--time", "nan"],
        ["--time", "inf"],
        ["--delay", "nan"],
        ["--delay", "inf"],
    ])
    def test_out_of_range_argument(self, flags, tmp_path, capsys):
        assert run(["--scenario", "basis45-table", *flags, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flags[0] in err
        assert not list(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: fourphoton")
        assert captured.err == ""

    def test_print_default_config(self, capsys):
        assert run(["--print-default-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["visibility_zero_delay"] == 0.79
        assert cfg["rates"]["background_fourfold_rate"] == pytest.approx(0.5 / 6000)


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert run(["--scenario", "hv-table", "--config", "/no/such/file.json",
                    "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["--scenario", "hv-table", "--config", str(bad),
                    "--out", str(tmp_path)]) == 2

    def test_unknown_key_named_in_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for user, key in (({"visibilty": 0.5}, "visibilty"),
                          ({"apparatus": {"pbs": {"eror_rate": 0.01}}}, "apparatus.pbs.eror_rate")):
            bad.write_text(json.dumps(user))
            assert run(["--scenario", "hv-table", "--config", str(bad),
                        "--out", str(tmp_path)]) == 2
            assert key in capsys.readouterr().err

    def test_bad_rate_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rates": {"fourfold_rate_desired": -1}}))
        assert run(["--scenario", "hv-table", "--config", str(bad),
                    "--out", str(tmp_path)]) == 2


    @pytest.mark.parametrize("scenario", ["delay-scan", "feasibility"])
    @pytest.mark.parametrize("user", [
        {"scan_delays_fs": []},
        {"scan_delays_fs": [0.0, float("nan")]},
        {"scan_delays_fs": 0.0},
        {"rates": {"detector_efficiency": "0.5"}},
        {"rates": {"dark_count_rate": float("nan")}},
        {"rates": {"fourfold_rate_desired": float("inf")}},
        {"visibility_zero_delay": 1.5},
        {"visibility_zero_delay": "0.79"},
        {"scan_time_per_point_s": -1},
        {"coherence_time_fs": float("nan")},
        {"bell_test_target_events": "x"},
        # numbers beyond float range, booleans, and rates whose derived rate overflows
        {"visibility_zero_delay": BEYOND_FLOAT},
        {"coherence_time_fs": BEYOND_FLOAT},
        {"scan_delays_fs": [0.0, -BEYOND_FLOAT]},
        {"bell_test_target_events": BEYOND_FLOAT},
        {"rates": {"fourfold_rate_desired": BEYOND_FLOAT}},
        {"apparatus": {"pbs": {"error_rate": BEYOND_FLOAT}}},
        {"rates": {"detector_efficiency": True}},
        {"apparatus": {"pbs": {"error_rate": False}}},
        {"rates": {"dark_count_rate": 1e100}},
        {"rates": {"coincidence_window_s": 1e200, "dark_count_rate": 1}},
    ])
    def test_out_of_range_config(self, user, scenario, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))  # NaN and Infinity are valid for json.loads
        assert run(["--scenario", scenario, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("scenario, user, flags", [
        ("hv-table", {}, ["--time", "1e300"]),
        ("delay-scan", {"scan_time_per_point_s": 1e300}, []),
    ])
    def test_expected_count_too_large(self, scenario, user, flags, tmp_path, capsys):
        # finite but beyond what numpy's Poisson sampler accepts
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        assert run(["--scenario", scenario, "--config", str(cfg), *flags,
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "expected count" in err
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("scenario, user", [
        ("feasibility", {"apparatus": {"pbs": {"error_rate": 2}}}),
        ("swap-report", {"rates": {"detector_efficiency": 5}}),
        ("hv-table", {"apparatus": {"pbs": {"error_rate": 2}}}),
    ])
    def test_whole_config_validated_before_output(self, scenario, user, tmp_path, capsys):
        # every scenario builds the apparatus and the rates, used or not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        assert run(["--scenario", scenario, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("apparatus", [
        {"sources": [{"photons": [1], "modes": ["1", "2"]},
                     {"photons": [3, 4], "modes": ["3", "4"]}]},
        # a JSON boolean is not a photon index
        {"sources": [{"photons": [True, 2], "modes": ["1", "2"]},
                     {"photons": [3, 4], "modes": ["3", "4"]}]},
        {"pbs": {"inputs": ["2"]}},
        {"detectors": {"D1": 1, "D2": "2'", "D3": "3'", "D4": "4"}},
        {"detectors": {"D1": "1"}},
        # source layouts that do not put one photon into each PBS input
        {"sources": [{"photons": [1, 2], "modes": ["1", "2"]}]},
        {"sources": [{"photons": [1, 2], "modes": ["2", "2"]},
                     {"photons": [3, 4], "modes": ["3", "4"]}]},
        {"sources": [{"photons": [1, 2], "modes": ["1", "2"]},
                     {"photons": [2, 4], "modes": ["3", "4"]}]},
        {"sources": []},
        # both PBS inputs fed by one pair, with an ideal and an imperfect PBS
        {"sources": [{"photons": [1, 2], "modes": ["2", "3"]},
                     {"photons": [3, 4], "modes": ["1", "4"]}]},
        {"sources": [{"photons": [1, 2], "modes": ["2", "3"]},
                     {"photons": [3, 4], "modes": ["1", "4"]}],
         "pbs": {"error_rate": 0.01}},
    ])
    def test_malformed_apparatus_shape(self, apparatus, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"apparatus": apparatus}))
        for scenario in SCENARIOS:
            assert run(["--scenario", scenario, "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and err.count("\n") == 1
            assert not (tmp_path / "out").exists()


class TestPhysicsErrors:
    def test_impossible_postselection(self, tmp_path, capsys):
        # detectors watch a mode nothing can reach
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"apparatus": {"detectors": {"D1": "1", "D2": "2'", "D3": "3'",
                                         "D4": "nowhere"}}}
        ))
        assert run(["--scenario", "hv-table", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 3
        assert "impossible" in capsys.readouterr().err


class TestScenarios:
    def test_hv_table_output(self, tmp_path):
        assert run(["--scenario", "hv-table", "--seed", "3",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "hv-table.csv").read_text().splitlines()
        assert lines[0] == "outcome,count,integration_time_s,seed"
        assert len(lines) == 17
        counts = {l.split(",")[0]: int(l.split(",")[1]) for l in lines[1:]}
        others = [v for k, v in counts.items() if k not in ("HVVH", "VHHV")]
        assert counts["HVVH"] > 50 and counts["VHHV"] > 50
        assert max(others) <= 5

    @pytest.mark.parametrize("user, flags, snr", [
        # every expected count underflows to 0: the ratio is 0/0
        ({}, ["--time", "1e-300"], "undefined (no counts)"),
        ({"rates": {"background_fourfold_rate": 0}}, [], "inf"),
    ])
    def test_hv_table_snr_without_background(self, user, flags, snr, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        out = tmp_path / "out"
        assert run(["--scenario", "hv-table", "--config", str(cfg), *flags,
                    "--out", str(out)]) == 0
        summary = (out / "hv-table_summary.txt").read_text().splitlines()
        assert "mean non-desired count: 0.000" in summary
        assert summary[-1] == f"signal-to-noise ratio: {snr}"

    @pytest.mark.parametrize("scenario, user, note", [
        ("delay-scan", ZERO_RATES,
         ["points without counts: 25", "peak visibility undefined (no counts)"]),
        # about one expected count per point: the peak is taken over the points with counts
        ("delay-scan", {"scan_time_per_point_s": 240},
         ["points without counts: 9", "peak visibility 1.000 +- 0.000 at delay -1200.0 fs"]),
        ("basis45-table", ZERO_RATES, ["no counts drawn"]),
    ])
    def test_zero_counts_named_in_summary(self, scenario, user, note, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        out = tmp_path / "out"
        assert run(["--scenario", scenario, "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = (out / f"{scenario}_summary.txt").read_text().splitlines()
        assert summary[-len(note):] == note

    def test_vanishing_coherence_time_runs_quietly(self, tmp_path, capsys):
        # every nonzero delay overflows delay / coherence time to inf: D = 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coherence_time_fs": 1e-320}))
        assert run(["--scenario", "delay-scan", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_pbs_error_rate_set_alone(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"apparatus": {"pbs": {"error_rate": 0.01}}}))
        out = tmp_path / "out"
        assert run(["--scenario", "hv-table", "--seed", "5", "--config", str(cfg),
                    "--out", str(out)]) == 0
        app = default_apparatus(0.01)
        table = monte_carlo_counts(app, hv_setting(app), RateModel(), 6000.0, 5)
        rows = [l.split(",") for l in (out / "hv-table.csv").read_text().splitlines()[1:]]
        assert {r[0]: int(r[1]) for r in rows} == table.counts

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        """The keyword arguments of each `exact_outcome_probabilities` call of the CLI."""
        seen = []
        exact = cli.exact_outcome_probabilities
        monkeypatch.setattr(cli, "exact_outcome_probabilities",
                            lambda *a, **kw: seen.append(kw) or exact(*a, **kw))
        return seen

    @pytest.mark.parametrize("error_rate, calls", [(0.0, 1), (0.01, 2)])
    def test_hv_table_exact_calls(self, error_rate, calls, exact_calls, tmp_path):
        # one table is drawn; with a PBS error the desired outcomes need the ideal one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"apparatus": {"pbs": {"error_rate": error_rate}},
                                   "visibility_zero_delay": 0.5}))
        out = tmp_path / "out"
        assert run(["--scenario", "hv-table", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(exact_calls) == calls and exact_calls[0]["pbs_error"] == error_rate
        assert all(kw["v0"] == 0.5 for kw in exact_calls)  # the draw too uses the config's v0
        summary = (out / "hv-table_summary.txt").read_text().splitlines()
        named = "desired outcomes (ideal PBS)" if error_rate else "desired outcomes"
        assert summary[1] == f"{named}: HVVH, VHHV"

    @pytest.mark.parametrize("error_rate", [0.0, 0.01])
    def test_basis45_table_prints_the_drawn_table(self, error_rate, exact_calls, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"apparatus": {"pbs": {"error_rate": error_rate}}}))
        out = tmp_path / "out"
        assert run(["--scenario", "basis45-table", "--seed", "4", "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert len(exact_calls) == 1
        app = default_apparatus(error_rate)
        probs = exact_outcome_probabilities(
            app, diagonal_setting(app), v0=0.79, pbs_error=error_rate)
        table = monte_carlo_counts(app, diagonal_setting(app), RateModel(), 6000.0, 4, v0=0.79)
        rows = [r.split(",") for r in (out / "basis45-table.csv").read_text().splitlines()[1:]]
        assert {r[0]: r[1] for r in rows} == {k: f"{p:.12g}" for k, p in probs.items()}
        assert {r[0]: int(r[2]) for r in rows} == table.counts

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_bit_identical_reruns(self, scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["--scenario", scenario, "--seed", "11", "--out", str(out)]) == 0
        files = sorted(p.name for p in out1.iterdir())
        assert files and files == sorted(p.name for p in out2.iterdir())
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_delay_scan_peaks_at_zero(self, tmp_path):
        assert run(["--scenario", "delay-scan", "--seed", "2",
                    "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "delay-scan.csv").read_text().splitlines()[1:]
        data = [r.split(",") for r in rows]
        best = max(data, key=lambda r: float(r[3]))
        assert abs(float(best[0])) <= 200.0

    def test_basis45_table(self, tmp_path):
        assert run(["--scenario", "basis45-table", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "basis45-table.csv").read_text().splitlines()[1:]
        probs = {r.split(",")[0]: float(r.split(",")[1]) for r in rows}
        even = [k for k in probs if k.count("+") % 2 == 0]
        odd = [k for k in probs if k.count("+") % 2 == 1]
        assert all(probs[k] == pytest.approx((1 + 0.79) / 16) for k in even)
        assert all(probs[k] == pytest.approx((1 - 0.79) / 16) for k in odd)

    def test_swap_report(self, tmp_path):
        assert run(["--scenario", "swap-report", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "swap-report.json").read_text())
        assert report["fidelity_to_target"] == pytest.approx((1 + 0.79) / 2, abs=1e-9)
        assert report["chsh_value"] > 2.0

    def test_feasibility(self, tmp_path):
        assert run(["--scenario", "feasibility", "--out", str(tmp_path)]) == 0
        row = (tmp_path / "feasibility.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) > 1.58e7
