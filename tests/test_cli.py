import contextlib
import errno
import io
import itertools
import json
import os
from pathlib import Path

import pytest

from fourphoton import (
    Apparatus,
    PairSource,
    PbsElement,
    RateModel,
    default_apparatus,
    diagonal_setting,
    exact_outcome_probabilities,
    ghz_after_postselection,
    hv_setting,
    monte_carlo_counts,
)
from fourphoton import cli, experiment
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
        # finite, but beyond the longest --time (1e18 s)
        ["--time", "1e300"],
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

    def test_reused_parser_runs_every_round_the_same(self, tmp_path):
        # main builds its parser on the first call; a usage error, --help and
        # --print-default-config in between leave the next round byte-identical
        def call(args):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
            return code, out.getvalue(), err.getvalue()

        def scenarios(out):
            calls = [call(["--scenario", s, "--out", str(out / s)]) for s in SCENARIOS]
            files = {p.relative_to(out).as_posix(): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()}
            return calls, files

        cli._parser.cache_clear()  # the first round builds the parser, the second reuses it
        first = scenarios(tmp_path / "first")
        assert [code for code, _, _ in first[0]] == [0] * len(SCENARIOS) and len(first[1]) == 11
        code, out, err = call(["--seed", "x"])
        assert code == 1 and out == "" and err.count("\n") == 1 and "--seed" in err
        code, out, err = call(["--help"])
        assert code == 0 and out.startswith("usage: fourphoton") and err == ""
        code, out, err = call(["--print-default-config"])
        assert code == 0 and json.loads(out) == cli.default_config() and err == ""
        assert scenarios(tmp_path / "second") == first
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_print_default_config(self, capsys):
        assert run(["--print-default-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["visibility_zero_delay"] == 0.79
        assert cfg["rates"] == {"fourfold_rate_desired": 200.0 / 6000.0,
                                "background_fourfold_rate": 0.5 / 6000.0}


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

    def test_integer_beyond_conversion_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not JSONDecodeError, on an
        # integer of more than 4,300 digits: still one line, before --out
        bad = tmp_path / "big.json"
        bad.write_text('{"visibility_zero_delay": 1' + "0" * 5000 + "}")
        assert run(["--scenario", "hv-table", "--config", str(bad),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_key_named_in_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for user, key in (({"visibilty": 0.5}, "visibilty"),
                          ({"apparatus": {"pbs": {"eror_rate": 0.01}}}, "apparatus.pbs.eror_rate")):
            bad.write_text(json.dumps(user))
            assert run(["--scenario", "hv-table", "--config", str(bad),
                        "--out", str(tmp_path)]) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["detector_efficiency", "dark_count_rate",
                                     "coincidence_window_s"])
    def test_removed_rate_key_is_unknown(self, key, tmp_path, capsys):
        # the rates are the two numbers the draw uses; older configs set three more
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rates": {key: 1.0}}))
        assert run(["--scenario", "hv-table", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: unknown config key: rates.{key}\n"
        assert not (tmp_path / "out").exists()

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
        {"rates": {"background_fourfold_rate": "0.5"}},
        {"rates": {"background_fourfold_rate": float("nan")}},
        {"rates": {"fourfold_rate_desired": float("inf")}},
        {"visibility_zero_delay": 1.5},
        {"visibility_zero_delay": "0.79"},
        {"scan_time_per_point_s": -1},
        {"coherence_time_fs": float("nan")},
        {"bell_test_target_events": "x"},
        # numbers beyond float range, booleans, and negative rates
        {"visibility_zero_delay": BEYOND_FLOAT},
        {"coherence_time_fs": BEYOND_FLOAT},
        {"scan_delays_fs": [0.0, -BEYOND_FLOAT]},
        {"bell_test_target_events": BEYOND_FLOAT},
        {"rates": {"fourfold_rate_desired": BEYOND_FLOAT}},
        {"apparatus": {"pbs": {"error_rate": BEYOND_FLOAT}}},
        {"rates": {"fourfold_rate_desired": True}},
        {"apparatus": {"pbs": {"error_rate": False}}},
        {"rates": {"background_fourfold_rate": BEYOND_FLOAT}},
        {"rates": {"background_fourfold_rate": -1e-300}},
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
        ("hv-table", {"rates": {"fourfold_rate_desired": 1e300}}, []),
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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, user", [
        ("feasibility", {"apparatus": {"pbs": {"error_rate": 2}}}),
        ("swap-report", {"rates": {"background_fourfold_rate": -1}}),
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


class TestOutputErrors:
    """`--out` failures, each exiting 1 with one stderr line. The tests run as root
    and fill no disk, so a denied `mkdir` and a full disk are made by failing the
    call that meets them; a file name held by a directory is made for real."""

    def test_permission_denied_mkdir(self, monkeypatch, tmp_path, capsys):
        def denied(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))

        monkeypatch.setattr(Path, "mkdir", denied)
        out = tmp_path / "out"
        assert run(["--scenario", "hv-table", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1
        assert "Permission denied" in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_full_disk_on_second_write(self, scenario, monkeypatch, tmp_path, capsys):
        clean = tmp_path / "clean"
        assert run(["--scenario", scenario, "--out", str(clean)]) == 0
        files = []  # the inode of each file written to, in order
        write = os.write

        def second_file_fails(fd, data):
            inode = os.fstat(fd).st_ino
            if inode not in files:
                files.append(inode)
            if len(files) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(fd, data)

        monkeypatch.setattr(os, "write", second_file_fails)
        out = tmp_path / "out"
        assert run(["--scenario", scenario, "--out", str(out)]) == 1
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1
        assert "Traceback" not in err and "No space left" in err
        # the file written before the failure stays whole, as a clean run wrote it;
        # the second was opened, and holds nothing
        first, second = ("swap-report.json", "swap-report.csv") if scenario == "swap-report" \
            else (f"{scenario}.csv", f"{scenario}_summary.txt")
        assert sorted(p.name for p in out.iterdir()) == sorted([first, second])
        assert [(out / name).stat().st_ino for name in (first, second)] == files
        assert (out / first).read_bytes() == (clean / first).read_bytes()
        assert (out / second).read_bytes() == b""

    def test_short_writes_write_every_byte(self, monkeypatch, tmp_path):
        # `os.write` may write fewer bytes than it is given: each file is written whole
        def outputs(out):
            for scenario in SCENARIOS:
                assert run(["--scenario", scenario, "--out", str(out / scenario)]) == 0
            return {p.relative_to(out).as_posix(): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        clean = outputs(tmp_path / "clean")
        write, calls = os.write, []
        monkeypatch.setattr(os, "write",
                            lambda fd, data: calls.append(fd) or write(fd, data[:7]))
        short = outputs(tmp_path / "short")
        monkeypatch.undo()
        assert short == clean and len(clean) == 11
        assert len(calls) == sum(-(-len(data) // 7) for data in clean.values())

    def test_directory_in_place_of_an_output_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "hv-table.csv").mkdir(parents=True)
        assert run(["--scenario", "hv-table", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1
        assert "Is a directory" in err
        assert sorted(p.name for p in out.iterdir()) == ["hv-table.csv"]


class TestPhysicsErrors:
    def test_impossible_postselection(self, tmp_path, capsys):
        # detectors watch a mode nothing can reach; every scenario that
        # post-selects exits 3 with nothing written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"apparatus": {"detectors": {"D1": "1", "D2": "2'", "D3": "3'",
                                         "D4": "nowhere"}}}
        ))
        for scenario in ("hv-table", "basis45-table", "delay-scan", "swap-report"):
            assert run(["--scenario", scenario, "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert err.startswith("physically impossible") and err.count("\n") == 1
            assert not (tmp_path / "out").exists()


class TestScenarios:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_runner_returns_files_and_writes_none(self, scenario, monkeypatch, tmp_path):
        # a runner only returns its files; main writes them, in the runner's order
        def no_write(path, lines, end):
            raise AssertionError(f"a runner wrote {path}")

        monkeypatch.setattr(cli, "_write", no_write)
        args = cli.build_parser().parse_args(["--scenario", scenario])
        files = cli.RUNNERS[scenario](cli.load_config(None), args)
        monkeypatch.undo()
        assert run(["--scenario", scenario, "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f[0] for f in files)
        for name, lines, end in files:
            assert (tmp_path / name).read_bytes() == "".join(l + end for l in lines).encode()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_default_config_files_run_as_no_config(self, scenario, tmp_path, capsys):
        # one load path: a `{}` config, the printed defaults and an equal apparatus
        # (detectors listed in reverse, an integer error_rate) merge into the same
        # tree that a run without --config checks and builds
        assert run(["--print-default-config"]) == 0
        printed = capsys.readouterr().out
        (tmp_path / "printed.json").write_text(printed)
        (tmp_path / "empty.json").write_text("{}")
        equal = json.loads(printed)
        equal["apparatus"]["detectors"] = dict(reversed(equal["apparatus"]["detectors"].items()))
        equal["apparatus"]["pbs"]["error_rate"] = 0
        (tmp_path / "equal.json").write_text(json.dumps(equal))
        outputs = []
        for config in ([], ["--config", str(tmp_path / "empty.json")],
                       ["--config", str(tmp_path / "printed.json")],
                       ["--config", str(tmp_path / "equal.json")]):
            out = tmp_path / f"out{len(outputs)}"
            code = run(["--scenario", scenario, "--seed", "7", *config, "--out", str(out)])
            files = sorted((p.name, p.read_bytes()) for p in out.iterdir())
            outputs.append((code, capsys.readouterr().err, files))
        assert outputs[0][0] == 0 and outputs[0][2]
        assert outputs[1:] == [outputs[0]] * 3

    # configs that name no `apparatus` section
    WITHOUT_APPARATUS = pytest.mark.parametrize(
        "user", [None, {}, {"rates": {"fourfold_rate_desired": 0.05}}],
        ids=["no config", "empty", "rates only"])

    @pytest.fixture
    def builds(self, monkeypatch):
        """The arguments of each `Apparatus` that `load_config` builds."""
        built = []
        apparatus = cli.Apparatus
        monkeypatch.setattr(cli, "Apparatus", lambda *args: built.append(args) or apparatus(*args))
        return built

    @staticmethod
    def config_path(user, tmp_path):
        if user is None:
            return None
        (tmp_path / "cfg.json").write_text(json.dumps(user))
        return str(tmp_path / "cfg.json")

    @WITHOUT_APPARATUS
    def test_config_without_apparatus_runs_on_the_default(self, user, tmp_path):
        cfg = cli.load_config(self.config_path(user, tmp_path))
        assert cfg["apparatus"] is cli._DEFAULT_APPARATUS

    @WITHOUT_APPARATUS
    def test_config_without_apparatus_builds_none(self, user, builds, tmp_path):
        cli.load_config(self.config_path(user, tmp_path))
        assert builds == []

    def test_apparatus_equal_to_the_default_is_the_default(self, builds, tmp_path):
        # built and checked once, then swapped for the default: JSON has 0 == 0.0
        user = {"apparatus": {"pbs": {"error_rate": 0}}}
        cfg = cli.load_config(self.config_path(user, tmp_path))
        assert cfg["apparatus"] is cli._DEFAULT_APPARATUS and len(builds) == 1

    def test_default_routing_compiles_once_per_process(self, monkeypatch, tmp_path):
        # the default config's apparatus is the module's default one, whose memo
        # outlives a call: a second round builds no source state (one per routing
        # pattern compiled) and writes the same bytes
        compiles = []
        source = experiment.source_state
        monkeypatch.setattr(experiment, "source_state",
                            lambda app: compiles.append(app) or source(app))

        def round_files(out):
            for scenario in ("hv-table", "basis45-table", "delay-scan", "swap-report"):
                assert run(["--scenario", scenario, "--out", str(out / scenario)]) == 0
            return {p.relative_to(out).as_posix(): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        first = round_files(tmp_path / "first")
        assert len(compiles) <= 1 and all(a is cli._DEFAULT_APPARATUS for a in compiles)
        del compiles[:]
        assert round_files(tmp_path / "second") == first and len(first) == 9
        assert compiles == []

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
        # another apparatus: its wrong-port patterns stay out of the default's memo
        assert set(cli._DEFAULT_APPARATUS._compiled) <= {frozenset()}

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        """The PBS error and v0 of each exact-model evaluation of the CLI, made by
        its runners through `exact_outcome_probabilities` or `monte_carlo_counts`."""
        seen, errors = [], {}
        compile_model, evaluate = experiment._exact_model, experiment._evaluate

        def compiled(apparatus, setting, pbs_error):
            model = compile_model(apparatus, setting, pbs_error)
            errors[id(model)] = pbs_error
            return model

        def counted(model, d, v0):
            seen.append({"pbs_error": errors[id(model)], "v0": v0})
            return evaluate(model, d, v0)

        monkeypatch.setattr(experiment, "_exact_model", compiled)
        monkeypatch.setattr(experiment, "_evaluate", counted)
        return seen

    @pytest.mark.parametrize("error_rate, calls", [(0.0, 1), (0.01, 1)])
    def test_hv_table_exact_calls(self, error_rate, calls, exact_calls, tmp_path):
        # one table is drawn; the desired outcomes are the ideal PBS's GHZ terms
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

    @pytest.mark.parametrize("error_rate", [0.0, 0.01, 0.3])
    def test_hv_desired_outcomes_are_the_ghz_terms(self, error_rate):
        # hv-table names the GHZ terms: the outcomes above 1e-9 of the ideal-PBS
        # table, for every detector order and three listings of the sources
        pairs = [PairSource((1, 2), ("1", "2")), PairSource((3, 4), ("3", "4"))]
        relabelled = [PairSource((4, 3), ("4", "3")), PairSource((2, 1), ("2", "1"))]
        pbs = PbsElement(("2", "3"), ("2'", "3'"), error_rate)
        for sources, modes in itertools.product(
            (pairs, pairs[::-1], relabelled), itertools.permutations(["1", "2'", "3'", "4"])
        ):
            app = Apparatus(tuple(sources), pbs, dict(zip(["D1", "D2", "D3", "D4"], modes)))
            ghz, _ = ghz_after_postselection(app)
            terms = {"".join(k) for k in ghz.mode_view(app.mode_order())}
            probs = exact_outcome_probabilities(app, hv_setting(app), v0=0.79)
            assert terms == {k for k, p in probs.items() if p > 1e-9} and len(terms) == 2

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
