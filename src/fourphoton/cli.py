"""Command-line front end: each scenario reproduces one headline result as
CSV plus a plain-text summary.

Scenarios:
  hv-table       H/V-basis four-fold count table (signal-to-noise check)
  basis45-table  45-degree basis probabilities and counts (parity structure)
  delay-scan     interference visibility vs PBS arrival delay
  swap-report    entanglement-swapping fidelity/visibility/CHSH report
  feasibility    measurement-time estimate for a full Bell test on photons 1,4

Exit codes: 0 success, 1 usage error or unwritable --out, 2 config error
(also an unreadable config file), 3 physically impossible request
(zero-probability post-selection).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import experiment, swap
from .elements import (
    COHERENCE_TIME_FS,
    VISIBILITY_ZERO_DELAY,
    DelayElement,
    PbsElement,
    dephase_by_distinguishability,
)
from .experiment import (
    Apparatus,
    PairSource,
    PostselectionError,
    RateModel,
    default_apparatus,
    delay_scan,
    diagonal_setting,
    draw_counts,
    exact_outcome_probabilities,
    feasibility_estimate,
    hv_setting,
)
from .states import StateError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_PHYSICS = 3

# Sections merged key by key with the defaults; any other value (detectors
# and sources included) replaces the default whole.
_MERGED_SECTIONS = ("apparatus", "apparatus.pbs", "rates")


@dataclass(frozen=True)
class Config:
    """Everything a scenario reads. The field defaults are the one table of
    paper-calibrated defaults."""

    apparatus: Apparatus = field(default_factory=default_apparatus)
    rates: RateModel = RateModel()
    visibility_zero_delay: float = VISIBILITY_ZERO_DELAY
    coherence_time_fs: float = COHERENCE_TIME_FS
    # Bell test on photons 1,4 conditioned on the phi+ detection
    # (success probability 0.5): event budget for 16 correlation
    # settings at the precision needed to beat the LHV bound.
    bell_test_target_events: int = 600000
    # -1200 .. 1200 fs in 100 fs steps, as Python floats: numpy scalars would
    # turn an overflow in the delay arithmetic into a printed RuntimeWarning
    scan_delays_fs: tuple[float, ...] = tuple(100.0 * k for k in range(-12, 13))
    scan_time_per_point_s: float = 24000.0


def default_config() -> dict:
    """`Config()` as the JSON tree that a `--config` file edits; see README."""
    cfg = Config()
    app = cfg.apparatus
    return {
        **{f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "apparatus": {
            "sources": [{"photons": list(s.photons), "modes": list(s.modes)} for s in app.sources],
            "pbs": {
                "inputs": list(app.pbs.input_modes),
                "outputs": list(app.pbs.output_modes),
                "error_rate": app.pbs.error_rate,
            },
            "detectors": dict(app.detectors),
        },
        "rates": asdict(cfg.rates),
        "scan_delays_fs": list(cfg.scan_delays_fs),
    }


def load_config(path: str | None) -> Config:
    """The defaults with the user's JSON merged in, checked, as a `Config`."""
    if path is None:
        return Config()
    try:
        user = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise StateError(f"cannot read config {path!r} as UTF-8 JSON: {exc}") from exc
    tree = default_config()
    _merge(tree, user, "")
    delays = tree["scan_delays_fs"]
    vis = tree["visibility_zero_delay"]
    events = tree["bell_test_target_events"]
    app, pbs = tree["apparatus"], tree["apparatus"]["pbs"]
    bad_rates = [key for key, val in tree["rates"].items() if not _finite(val)]
    for ok, problem in (
        (isinstance(delays, list) and delays and all(map(_finite, delays)),
         "scan_delays_fs must be a non-empty list of finite numbers"),
        (_finite(vis) and 0 <= vis <= 1, "visibility_zero_delay must be a number in [0, 1]"),
        (_positive(tree["scan_time_per_point_s"]),
         "scan_time_per_point_s must be a positive finite number"),
        (_positive(tree["coherence_time_fs"]), "coherence_time_fs must be a positive finite number"),
        (isinstance(events, int) and _finite(events) and events >= 0,
         "bell_test_target_events must be a nonnegative integer within float range"),
        (not bad_rates, f"rates {', '.join(bad_rates)} must be finite numbers"),
        (_finite(pbs["error_rate"]), "apparatus.pbs.error_rate must be a finite number"),
    ):
        if not ok:
            raise StateError(problem)
    try:
        apparatus = Apparatus(
            tuple(PairSource(tuple(s["photons"]), tuple(s["modes"])) for s in app["sources"]),
            PbsElement(tuple(pbs["inputs"]), tuple(pbs["outputs"]), pbs["error_rate"]),
            dict(app["detectors"]),
        )
    except (KeyError, TypeError, ValueError) as exc:  # StateError is a ValueError
        raise StateError(f"bad apparatus config: {exc}") from exc
    try:
        rates = RateModel(**tree["rates"])
    except StateError as exc:
        raise StateError(f"bad rates config: {exc}") from exc
    return Config(**{**tree, "apparatus": apparatus, "rates": rates,
                     "scan_delays_fs": tuple(delays)})


def _merge(tree: dict, user, section: str) -> None:
    if not isinstance(user, dict):
        raise StateError(f"{section or 'config'} must be a JSON object")
    for key, val in user.items():
        name = f"{section}.{key}" if section else key
        if key not in tree:
            raise StateError(f"unknown config key: {name}")
        if name in _MERGED_SECTIONS:
            _merge(tree[key], val, name)
        else:
            tree[key] = val


def _finite(value) -> bool:
    """A JSON number, not a boolean, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _positive(value) -> bool:
    return _finite(value) and value > 0


def _write(path: Path, lines: list[str], end: str = "\n") -> None:
    """The one output writer: `lines`, each ended by `end`, byte for byte."""
    path.write_text("".join(line + end for line in lines), newline="")


def run_hv_table(cfg: Config, args, out: Path) -> None:
    app, setting, v0 = cfg.apparatus, hv_setting(cfg.apparatus), cfg.visibility_zero_delay
    probs = exact_outcome_probabilities(app, setting, v0=v0, pbs_error=app.pbs.error_rate)
    table = draw_counts(probs, cfg.rates, args.time, args.seed)
    lines = ["outcome,count,integration_time_s,seed"]
    lines += [f"{k},{n},{args.time},{args.seed}" for k, n in sorted(table.counts.items())]
    # CRLF line ends, the csv module's default: the published format of this table
    _write(out / "hv-table.csv", lines, end="\r\n")
    # the desired outcomes are the GHZ terms: with a PBS error, the drawn table
    # also holds wrong-port outcomes, so they come from the ideal-PBS table
    desired_from = "desired outcomes"
    if app.pbs.error_rate > 0:
        probs = exact_outcome_probabilities(app, setting, v0=v0)
        desired_from += " (ideal PBS)"
    desired = [k for k, p in probs.items() if p > 1e-9]
    n_des = sum(table.counts[k] for k in desired) / len(desired)
    others = [k for k in table.counts if k not in desired]
    n_bg = sum(table.counts[k] for k in others) / len(others)
    if n_bg > 0:
        snr = f"{n_des / n_bg:.1f}"
    else:
        snr = "inf" if n_des > 0 else "undefined (no counts)"
    _write(
        out / "hv-table_summary.txt",
        [
            f"integration time: {table.integration_time} s, seed {table.seed}",
            f"{desired_from}: {', '.join(sorted(desired))}",
            f"mean desired count: {n_des:.2f}",
            f"mean non-desired count: {n_bg:.3f}",
            f"signal-to-noise ratio: {snr}",
        ],
    )


def run_basis45_table(cfg: Config, args, out: Path) -> None:
    app, setting, v0 = cfg.apparatus, diagonal_setting(cfg.apparatus), cfg.visibility_zero_delay
    delay = DelayElement(args.delay, cfg.coherence_time_fs)
    # the probability column is the table the counts are drawn from
    probs = exact_outcome_probabilities(
        app, setting, delay=delay, v0=v0, pbs_error=app.pbs.error_rate
    )
    table = draw_counts(probs, cfg.rates, args.time, args.seed)
    lines = ["outcome,probability,count,integration_time_s,seed"]
    for k, p in sorted(probs.items()):
        lines.append(f"{k},{p:.12g},{table.counts[k]},{args.time},{args.seed}")
    _write(out / "basis45-table.csv", lines)
    even = [k for k in probs if k.count("+") % 2 == 0]
    _write(
        out / "basis45-table_summary.txt",
        [
            f"delay: {args.delay} fs, zero-delay visibility: {v0}",
            f"even-parity probability total: {sum(probs[k] for k in even):.6f}",
            f"nonzero outcomes: {sum(1 for p in probs.values() if p > 1e-12)}",
            *(["no counts drawn"] if table.total() == 0 else []),
        ],
    )


def run_delay_scan(cfg: Config, args, out: Path) -> None:
    points = delay_scan(
        cfg.apparatus,
        diagonal_setting(cfg.apparatus),
        cfg.scan_delays_fs,
        cfg.rates,
        cfg.scan_time_per_point_s,
        args.seed,
        coherence_time_fs=cfg.coherence_time_fs,
        v0=cfg.visibility_zero_delay,
    )
    rows = []
    for tau, table in points:
        n_pppp = table.counts["++++"]
        n_pppm = table.counts["+++-"]
        if n_pppp + n_pppm > 0:
            vis, err = swap.visibility_from_counts(table.counts, ["++++"], ["+++-"])
        else:
            vis, err = 0.0, 0.0
        rows.append((tau, n_pppp, n_pppm, vis, err))
    lines = ["delay_fs,counts_pppp,counts_pppm,visibility,visibility_error"]
    lines += [f"{tau},{a},{b},{vis:.6f},{err:.6f}" for tau, a, b, vis, err in rows]
    _write(out / "delay-scan.csv", lines)
    summary = [f"points: {len(rows)}, time per point: {cfg.scan_time_per_point_s} s"]
    counted = [r for r in rows if r[1] + r[2] > 0]
    if len(counted) < len(rows):
        summary.append(f"points without counts: {len(rows) - len(counted)}")
    if counted:
        peak = max(counted, key=lambda r: r[3])
        summary.append(f"peak visibility {peak[3]:.3f} +- {peak[4]:.3f} at delay {peak[0]} fs")
    else:
        summary.append("peak visibility undefined (no counts)")
    _write(out / "delay-scan_summary.txt", summary)


def run_swap_report(cfg: Config, args, out: Path) -> None:
    state, _ = experiment.ghz_after_postselection(cfg.apparatus)
    rho = dephase_by_distinguishability(state, 1.0, cfg.visibility_zero_delay)
    result = swap.phi_plus_via_45_coincidence(rho)
    chsh = swap.chsh_value(result.conditioned_state_14)
    report = {
        "projection_probability": result.projection_probability,
        "fidelity_to_target": result.fidelity_to_target,
        "visibility_45": result.visibility_45,
        "chsh_value": chsh,
    }
    _write(out / "swap-report.json", [json.dumps(report, indent=2)])
    _write(
        out / "swap-report.csv",
        [
            "projection_probability,fidelity,visibility,chsh_value",
            ",".join(f"{x:.12g}" for x in report.values()),
        ],
    )
    _write(
        out / "swap-report_summary.txt",
        [
            f"phi+ projection probability: {result.projection_probability:.4f}",
            f"fidelity to phi+ on photons 1,4: {result.fidelity_to_target:.4f}",
            f"45-degree visibility: {result.visibility_45:.4f}",
            f"CHSH value at phi+-optimal settings: {chsh:.4f} (LHV bound 2)",
        ],
    )


def run_feasibility(cfg: Config, args, out: Path) -> None:
    target = cfg.bell_test_target_events
    # phi+ identification succeeds on half of the four-fold events
    usable_rate = cfg.rates.effective_fourfold_rate() * 0.5
    seconds = feasibility_estimate(target, cfg.rates) / 0.5
    months = seconds / (30 * 86400)
    _write(
        out / "feasibility.csv",
        [
            "target_events,effective_fourfold_rate_per_s,seconds,months",
            f"{target},{usable_rate:.6g},{seconds:.6g},{months:.3f}",
        ],
    )
    _write(
        out / "feasibility_summary.txt",
        [
            f"target usable events: {target}",
            f"usable event rate: {usable_rate:.3g}/s",
            f"required continuous measurement: {seconds:.3g} s ({months:.1f} months)",
        ],
    )


RUNNERS = {
    "hv-table": run_hv_table,
    "basis45-table": run_basis45_table,
    "delay-scan": run_delay_scan,
    "swap-report": run_swap_report,
    "feasibility": run_feasibility,
}
SCENARIOS = tuple(RUNNERS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line, like every other failure; --help shows the usage
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message} (see --help)\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="fourphoton",
        description="Four-photon GHZ / entanglement-swapping experiment simulator",
    )
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--scenario", metavar="NAME", help=f"one of {', '.join(SCENARIOS)}")
    p.add_argument("--seed", type=int, default=1, metavar="U64")
    p.add_argument("--time", type=float, default=6000.0, metavar="SECONDS",
                   help="integration time for count tables")
    p.add_argument("--delay", type=float, default=0.0, metavar="FS",
                   help="PBS arrival delay (basis45-table)")
    p.add_argument("--out", default="out", metavar="DIR", help="output directory")
    p.add_argument("--print-default-config", action="store_true")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after printing --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    if args.print_default_config:
        print(json.dumps(default_config(), indent=2))
        return EXIT_OK

    for ok, problem in (
        (args.scenario is not None, "--scenario is required (see --help)"),
        (args.scenario in RUNNERS,
         f"unknown scenario {args.scenario!r}; choose from {', '.join(SCENARIOS)}"),
        (args.seed >= 0, "--seed must be nonnegative"),
        (0 < args.time < math.inf, "--time must be positive and finite"),
        (math.isfinite(args.delay), "--delay must be finite"),
    ):
        if not ok:
            print(f"error: {problem}", file=sys.stderr)
            return EXIT_USAGE

    # config errors come before --out exists: load_config runs first
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        RUNNERS[args.scenario](cfg, args, out)
    except PostselectionError as exc:
        print(f"physically impossible: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except StateError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # --out cannot be made or written
        print(f"error: cannot write output to {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
