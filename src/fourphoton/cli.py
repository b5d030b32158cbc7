"""Command-line front end: each scenario reproduces one headline result as
CSV plus a plain-text summary.

Scenarios:
  hv-table       H/V-basis four-fold count table (signal-to-noise check)
  basis45-table  45-degree basis probabilities and counts (parity structure)
  delay-scan     interference visibility vs PBS arrival delay
  swap-report    entanglement-swapping fidelity/visibility/CHSH report
  feasibility    measurement-time estimate for a full Bell test on photons 1,4

Each `run_*` runner returns its scenario's files; `main` then creates --out and
writes them with `_write`, so a run that fails before writing leaves no --out.
`_write` makes one open per file, writes until every byte is out, and closes.
`main` builds its parser once and reuses it; `build_parser()` returns a fresh one.
The apparatus is built only when the config names it; one equal to the default is
the default, so its routing compiles once per process.

Exit codes: 0 success, 1 usage error or unwritable --out, 2 config error
(also an unreadable config file), 3 physically impossible request
(zero-probability post-selection).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
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
    monte_carlo_counts,
)
from .states import StateError, as_number, check_type

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_PHYSICS = 3

# the longest --time: at the default rates no count exceeds 3.4e16; numpy draws to ~9.2e18
MAX_TIME_S = 1e18

# Sections merged key by key with the defaults; any other value (detectors
# and sources included) replaces the default whole.
_MERGED_SECTIONS = ("apparatus", "apparatus.pbs", "rates")

_DEFAULT_APPARATUS = default_apparatus()  # the defaults' values; an equal config runs on it


def default_config() -> dict:
    """The one table of calibrated defaults, as the JSON tree that a `--config` file
    edits (see README): the library's own defaults and the values only the CLI reads."""
    app = _DEFAULT_APPARATUS
    return {
        "apparatus": {
            "sources": [{"photons": list(s.photons), "modes": list(s.modes)} for s in app.sources],
            "pbs": {
                "inputs": list(app.pbs.input_modes),
                "outputs": list(app.pbs.output_modes),
                "error_rate": app.pbs.error_rate,
            },
            "detectors": dict(app.detectors),
        },
        "rates": dict(vars(RateModel())),
        "visibility_zero_delay": VISIBILITY_ZERO_DELAY,
        "coherence_time_fs": COHERENCE_TIME_FS,
        # Bell test on photons 1,4 conditioned on the phi+ detection
        # (success probability 0.5): event budget for 16 correlation
        # settings at the precision needed to beat the LHV bound.
        "bell_test_target_events": 600000,
        # -1200 .. 1200 fs in 100 fs steps, as Python floats: numpy scalars would
        # turn an overflow in the delay arithmetic into a printed RuntimeWarning
        "scan_delays_fs": [100.0 * k for k in range(-12, 13)],
        "scan_time_per_point_s": 24000.0,
    }


def load_config(path: str | None) -> dict:
    """`default_config()` with the JSON at `path`, if given, merged in and checked: the
    tree a runner reads, with the apparatus and the rates built and the delays a tuple."""
    tree, user = default_config(), {}
    if path is not None:
        # a ValueError covers UnicodeDecodeError, JSONDecodeError and an integer
        # of more digits than int() converts
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, RecursionError, ValueError) as exc:
            raise StateError(f"cannot read config {path!r} as UTF-8 JSON: {exc}") from exc
        _merge(tree, user, "")
    delays = tree["scan_delays_fs"]
    vis = tree["visibility_zero_delay"]
    events = tree["bell_test_target_events"]
    # the rates and the PBS error_rate are checked by RateModel and PbsElement
    for ok, problem in (
        (isinstance(delays, list) and delays
         and all(-math.inf < as_number(tau) < math.inf for tau in delays),
         "scan_delays_fs must be a non-empty list of finite numbers"),
        (0 <= as_number(vis) <= 1, "visibility_zero_delay must be a number in [0, 1]"),
        (0 < as_number(tree["scan_time_per_point_s"]) < math.inf,
         "scan_time_per_point_s must be a positive finite number"),
        (0 < as_number(tree["coherence_time_fs"]) < math.inf,
         "coherence_time_fs must be a positive finite number"),
        (isinstance(events, int) and 0 <= as_number(events) < math.inf,
         "bell_test_target_events must be a nonnegative integer within float range"),
    ):
        if not ok:
            raise StateError(problem)
    apparatus = _DEFAULT_APPARATUS  # what the default tree builds, unless the JSON names it
    if "apparatus" in user:
        app, pbs = tree["apparatus"], tree["apparatus"]["pbs"]
        try:
            apparatus = Apparatus(
                tuple(PairSource(tuple(s["photons"]), tuple(s["modes"])) for s in app["sources"]),
                PbsElement(tuple(pbs["inputs"]), tuple(pbs["outputs"]), pbs["error_rate"]),
                dict(app["detectors"]),
            )
        except (KeyError, TypeError, ValueError) as exc:  # StateError is a ValueError
            raise StateError(f"bad apparatus config: {exc}") from exc
        if apparatus == _DEFAULT_APPARATUS:  # once built and checked: JSON has false == 0
            apparatus = _DEFAULT_APPARATUS
    try:
        rates = RateModel(**tree["rates"])
    except StateError as exc:
        raise StateError(f"bad rates config: {exc}") from exc
    return {**tree, "apparatus": apparatus, "rates": rates, "scan_delays_fs": tuple(delays)}


def _merge(tree: dict, user, section: str) -> None:
    check_type(user, dict, f"{section or 'config'} must be a JSON object")
    for key, val in user.items():
        name = f"{section}.{key}" if section else key
        if key not in tree:
            raise StateError(f"unknown config key: {name}")
        if name in _MERGED_SECTIONS:
            _merge(tree[key], val, name)
        else:
            tree[key] = val


def _write(path: Path, lines: list[str], end: str) -> None:
    """The one output writer: `lines`, each ended by `end`, byte for byte (every output
    is ASCII). One open, then `os.write` until every byte is out: a short write must not
    leave a truncated file behind a run that exits 0."""
    data = "".join(line + end for line in lines).encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


# A runner's output file: (name in --out, lines, line end), listed in write order.
File = tuple[str, list[str], str]


def run_hv_table(cfg: dict, args) -> list[File]:
    app, v0 = cfg["apparatus"], cfg["visibility_zero_delay"]
    counts = monte_carlo_counts(app, hv_setting(app), cfg["rates"], args.time, args.seed,
                                v0=v0).counts
    lines = ["outcome,count,integration_time_s,seed"]
    lines += [f"{k},{n},{args.time},{args.seed}" for k, n in sorted(counts.items())]
    # the desired outcomes are the GHZ terms, the ideal PBS's: with a PBS
    # error, the drawn table also holds wrong-port outcomes
    ghz, _ = experiment.ghz_after_postselection(app)
    desired = ["".join(k) for k in ghz.mode_view(app.mode_order())]
    desired_from = "desired outcomes" + (" (ideal PBS)" if app.pbs.error_rate > 0 else "")
    n_des = sum(counts[k] for k in desired) / len(desired)
    others = [k for k in counts if k not in desired]
    n_bg = sum(counts[k] for k in others) / len(others)
    if n_bg > 0:
        snr = f"{n_des / n_bg:.1f}"
    else:
        snr = "inf" if n_des > 0 else "undefined (no counts)"
    return [
        # CRLF line ends, the csv module's default: the published format of this table
        ("hv-table.csv", lines, "\r\n"),
        ("hv-table_summary.txt", [
            f"integration time: {args.time} s, seed {args.seed}",
            f"{desired_from}: {', '.join(sorted(desired))}",
            f"mean desired count: {n_des:.2f}",
            f"mean non-desired count: {n_bg:.3f}",
            f"signal-to-noise ratio: {snr}",
        ], "\n"),
    ]


def run_basis45_table(cfg: dict, args) -> list[File]:
    app, v0 = cfg["apparatus"], cfg["visibility_zero_delay"]
    delay = DelayElement(args.delay, cfg["coherence_time_fs"])
    # the probability column is the table the counts are drawn from
    probs = exact_outcome_probabilities(
        app, diagonal_setting(app), delay=delay, v0=v0, pbs_error=app.pbs.error_rate
    )
    table = draw_counts(probs, cfg["rates"], args.time, args.seed)
    lines = ["outcome,probability,count,integration_time_s,seed"]
    for k, p in sorted(probs.items()):
        lines.append(f"{k},{p:.12g},{table.counts[k]},{args.time},{args.seed}")
    even = [k for k in probs if k.count("+") % 2 == 0]
    return [
        ("basis45-table.csv", lines, "\n"),
        ("basis45-table_summary.txt", [
            f"delay: {args.delay} fs, zero-delay visibility: {v0}",
            f"even-parity probability total: {sum(probs[k] for k in even):.6f}",
            f"nonzero outcomes: {sum(1 for p in probs.values() if p > 1e-12)}",
            *(["no counts drawn"] if sum(table.counts.values()) == 0 else []),
        ], "\n"),
    ]


def run_delay_scan(cfg: dict, args) -> list[File]:
    app, time = cfg["apparatus"], cfg["scan_time_per_point_s"]
    points = delay_scan(app, diagonal_setting(app), cfg["scan_delays_fs"], cfg["rates"], time,
                        args.seed, coherence_time_fs=cfg["coherence_time_fs"],
                        v0=cfg["visibility_zero_delay"])
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
    summary = [f"points: {len(rows)}, time per point: {time} s"]
    counted = [r for r in rows if r[1] + r[2] > 0]
    if len(counted) < len(rows):
        summary.append(f"points without counts: {len(rows) - len(counted)}")
    if counted:
        peak = max(counted, key=lambda r: r[3])
        summary.append(f"peak visibility {peak[3]:.3f} +- {peak[4]:.3f} at delay {peak[0]} fs")
    else:
        summary.append("peak visibility undefined (no counts)")
    return [("delay-scan.csv", lines, "\n"), ("delay-scan_summary.txt", summary, "\n")]


def run_swap_report(cfg: dict, args) -> list[File]:
    state, _ = experiment.ghz_after_postselection(cfg["apparatus"])
    rho = dephase_by_distinguishability(state, 1.0, cfg["visibility_zero_delay"])
    result = swap.phi_plus_via_45_coincidence(rho)
    chsh = swap.chsh_value(result.conditioned_state_14)
    report = {
        "projection_probability": result.projection_probability,
        "fidelity_to_target": result.fidelity_to_target,
        "visibility_45": result.visibility_45,
        "chsh_value": chsh,
    }
    return [
        ("swap-report.json", [json.dumps(report, indent=2)], "\n"),
        ("swap-report.csv", [
            "projection_probability,fidelity,visibility,chsh_value",
            ",".join(f"{x:.12g}" for x in report.values()),
        ], "\n"),
        ("swap-report_summary.txt", [
            f"phi+ projection probability: {result.projection_probability:.4f}",
            f"fidelity to phi+ on photons 1,4: {result.fidelity_to_target:.4f}",
            f"45-degree visibility: {result.visibility_45:.4f}",
            f"CHSH value at phi+-optimal settings: {chsh:.4f} (LHV bound 2)",
        ], "\n"),
    ]


def run_feasibility(cfg: dict, args) -> list[File]:
    target = cfg["bell_test_target_events"]
    # phi+ identification succeeds on half of the four-fold events
    usable_rate = cfg["rates"].fourfold_rate_desired * 0.5
    seconds = feasibility_estimate(target, cfg["rates"]) / 0.5
    months = seconds / (30 * 86400)
    return [
        ("feasibility.csv", [
            "target_events,effective_fourfold_rate_per_s,seconds,months",
            f"{target},{usable_rate:.6g},{seconds:.6g},{months:.3f}",
        ], "\n"),
        ("feasibility_summary.txt", [
            f"target usable events: {target}",
            f"usable event rate: {usable_rate:.3g}/s",
            f"required continuous measurement: {seconds:.3g} s ({months:.1f} months)",
        ], "\n"),
    ]


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


# built on the first `main` call, not at import: parsing leaves a parser unchanged, and
# argparse reads sys.stdout, sys.stderr and the terminal width only when it prints
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
        (args.time <= MAX_TIME_S, f"--time must be at most {MAX_TIME_S:g} s"),
        (math.isfinite(args.delay), "--delay must be finite"),
    ):
        if not ok:
            print(f"error: {problem}", file=sys.stderr)
            return EXIT_USAGE

    # --out is made only once the runner has returned: an error leaves none
    try:
        files = RUNNERS[args.scenario](load_config(args.config), args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, lines, end in files:
            _write(out / name, lines, end)
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
