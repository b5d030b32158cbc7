"""The benchmark's four workloads.

Each workload turns a workload seed into inputs (`input(i)` is a pure function
of the seed and the op index), runs one op on an input, checks every op's
output as it completes, and runs a gate over the whole run at the end. The
library only ever sees the generated inputs.

Importing this module imports `fourphoton`, so the worker imports it inside
the set-up clock.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import shutil
from pathlib import Path

import numpy as np

from fourphoton import (
    DelayElement,
    MeasurementSetting,
    RateModel,
    default_apparatus,
    diagonal_setting,
    hv_setting,
)
from fourphoton import elements, experiment, swap

ROOT = Path(__file__).resolve().parent.parent

# Calibrated values of the paper and the CLI's default delay grid.
V0 = 0.79
COHERENCE_FS = 550.0
HV_TIME_S = 6000.0
HV_DESIRED = ("HVVH", "VHHV")
HV_SNR = 200.0
HV_BACKGROUND = 0.5  # mean count per non-desired outcome per HV_TIME_S
ENSEMBLE = 1000  # distinct Monte Carlo seeds in the H/V ensemble
SCAN_DELAYS_FS = [round(x, 1) for x in np.linspace(-1200, 1200, 25)]
SCAN_TIME_S = 24000.0
CHUNK = 1024  # inputs generated per random-number stream
EXACT_TOL = 1e-12
CLI_SCENARIOS = ("hv-table", "basis45-table", "delay-scan", "swap-report", "feasibility")
CLI_SEEDS = 2  # seeds per scenario, so every (scenario, seed) repeats within a run


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _load_oracle():
    """The independent dense-matrix oracle the test suite checks against."""
    spec = importlib.util.spec_from_file_location(
        "fourphoton_oracle", ROOT / "tests" / "oracle.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    block: int  # ops per traced block

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def input(self, i: int):
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def inprocess_op(self, x):
        """The op as run in the traced run, inside this process."""
        return self.op(x)

    def check(self, x, out) -> bool:
        return True

    def gate(self, ops: int) -> int:
        """Failed ops found by checks over the whole run (0 when all pass).

        A run-level check that fails marks every op of the run failed."""
        return 0

    def extra_metrics(self, latencies: list[tuple[object, float]]) -> dict:
        """Per-layer metrics taken from untraced in-process op latencies."""
        return {f"cli.main.{s}.ms": 0.0 for s in CLI_SCENARIOS}


class HvEnsemble(Workload):
    """One H/V-basis Monte Carlo table per op, cycling over a seed ensemble."""

    block = ENSEMBLE

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seeds = [int(s) for s in _rng(seed).integers(0, 2**32, ENSEMBLE)]
        self.apparatus = default_apparatus()
        self.setting = hv_setting(self.apparatus)
        self.rates = RateModel()
        self.tables: dict[int, dict] = {}  # Monte Carlo seed -> first table drawn

    def input(self, i):
        return self.seeds[i % ENSEMBLE]

    def op(self, mc_seed):
        return experiment.monte_carlo_counts(
            self.apparatus, self.setting, self.rates, HV_TIME_S, mc_seed
        ).counts

    def check(self, mc_seed, counts):
        first = self.tables.setdefault(mc_seed, counts)
        if first is not counts:
            return counts == first  # the same seed gives the same table
        return len(counts) == 16 and all(
            isinstance(c, int) and c >= 0 for c in counts.values()
        )

    def gate(self, ops):
        probs = experiment.exact_outcome_probabilities(self.apparatus, self.setting)
        desired = sorted(k for k, p in probs.items() if p > 1e-9)
        ok = desired == sorted(HV_DESIRED) and all(
            abs(probs[k] - 0.5) <= EXACT_TOL for k in desired
        )
        tables = list(self.tables.values())
        if not tables:
            return ops
        des = [t[k] for t in tables for k in HV_DESIRED]
        bg = [c for t in tables for k, c in t.items() if k not in HV_DESIRED]
        mean_des, mean_bg = float(np.mean(des)), float(np.mean(bg))
        # Poisson errors of the two means, five standard errors either way
        sem_bg = math.sqrt(HV_BACKGROUND / len(bg))
        sem_des = math.sqrt(HV_SNR * HV_BACKGROUND / len(des))
        snr_err = HV_SNR * math.hypot(sem_des / (HV_SNR * HV_BACKGROUND), sem_bg / HV_BACKGROUND)
        ok = ok and abs(mean_bg - HV_BACKGROUND) <= 5 * sem_bg
        ok = ok and abs(mean_des / mean_bg - HV_SNR) <= 5 * snr_err
        rerun = self.op(self.seeds[0])  # an untimed re-run of a seed
        ok = ok and rerun == self.tables.get(self.seeds[0])
        return 0 if ok else ops


class DelayScan(Workload):
    """One 25-point delay scan per op, plus the exact swap analysis at each delay."""

    block = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.apparatus = default_apparatus()
        self.setting = diagonal_setting(self.apparatus)
        self.rates = RateModel()
        self._chunk = self._make_chunk(0)  # the first chunk is part of set-up

    def _make_chunk(self, c):
        return c, _rng(self.seed, c).integers(0, 2**32, CHUNK)

    def input(self, i):
        c, k = divmod(i, CHUNK)
        if self._chunk[0] != c:
            self._chunk = self._make_chunk(c)
        return int(self._chunk[1][k])

    def op(self, scan_seed):
        points = experiment.delay_scan(
            self.apparatus, self.setting, SCAN_DELAYS_FS, self.rates,
            SCAN_TIME_S, scan_seed, coherence_time_fs=COHERENCE_FS, v0=V0,
        )
        visibilities = [
            swap.visibility_from_counts(table.counts, ["++++"], ["+++-"])
            for _, table in points
        ]
        ghz, _ = experiment.ghz_after_postselection(self.apparatus)
        exact = []
        for tau in SCAN_DELAYS_FS:
            d = elements.distinguishability(DelayElement(tau, COHERENCE_FS))
            rho = elements.dephase_by_distinguishability(ghz, d, V0)
            result = swap.phi_plus_via_45_coincidence(rho)
            chsh = swap.chsh_value(result.conditioned_state_14)
            exact.append((
                result.projection_probability, result.fidelity_to_target,
                result.visibility_45, chsh,
            ))
        return points, visibilities, exact

    def check(self, scan_seed, out):
        points, visibilities, exact = out
        n = len(SCAN_DELAYS_FS)
        mid = exact[n // 2]
        return (
            [tau for tau, _ in points] == SCAN_DELAYS_FS
            and all(len(t.counts) == 16 and min(t.counts.values()) >= 0 for _, t in points)
            and all(-1.0 <= v <= 1.0 and e >= 0.0 for v, e in visibilities)
            and all(exact[k] == exact[n - 1 - k] for k in range(n))  # even in tau
            and abs(mid[2] - V0) <= 1e-9
            and abs(mid[1] - (1 + V0) / 2) <= 1e-9
        )

    def gate(self, ops):
        probs = experiment.exact_outcome_probabilities(
            self.apparatus, self.setting, delay=DelayElement(0.0, COHERENCE_FS), v0=V0
        )
        vis = (probs["++++"] - probs["+++-"]) / (probs["++++"] + probs["+++-"])
        return 0 if abs(vis - V0) <= 1e-9 else ops


class SettingSweep(Workload):
    """Exact outcome probabilities at fresh random settings: two per op.

    Settings alternate between an ideal PBS (even settings) and a PBS error
    rate > 0 (odd settings), which takes four routing patterns and about four
    times as long. An op evaluates one of each, so that op latencies have one
    mode and the percentiles do not jump between the two kinds of setting.
    """

    block = 100
    ORACLE_OPS = 32

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.apparatus = default_apparatus()
        self.detectors = self.apparatus.detector_ids()
        self._chunk = self._make_chunk(0)  # the first chunk is part of set-up
        # both settings of one op in every 32 go to the oracle
        self.sampled = int(_rng(seed, 2**32).integers(0, 32))
        self.samples: list[tuple] = []

    def _make_chunk(self, c):
        rng = _rng(self.seed, c)
        angles = rng.uniform(0.0, 180.0, (CHUNK, 4))
        tau = rng.uniform(-1200.0, 1200.0, CHUNK)
        v0 = rng.uniform(0.5, 1.0, CHUNK)
        err = 0.05 - rng.uniform(0.0, 0.05, CHUNK)  # (0, 0.05]
        err[::2] = 0.0  # CHUNK is even, so these are the even settings
        return c, (angles, tau, v0, err)

    def _setting(self, j):
        c, k = divmod(j, CHUNK)
        if self._chunk[0] != c:
            self._chunk = self._make_chunk(c)
        angles, tau, v0, err = self._chunk[1]
        return tuple(float(a) for a in angles[k]), float(tau[k]), float(v0[k]), float(err[k])

    def input(self, i):
        return i, self._setting(2 * i), self._setting(2 * i + 1)

    def op(self, x):
        return [self._probabilities(setting) for setting in x[1:]]

    def _probabilities(self, setting):
        angles, tau, v0, err = setting
        probs = experiment.exact_outcome_probabilities(
            self.apparatus,
            MeasurementSetting(dict(zip(self.detectors, angles))),
            delay=DelayElement(tau, COHERENCE_FS),
            v0=v0,
            pbs_error=err,
        )
        corr = sum(
            p * (-1) ** sum(sym in "-V" for sym in key) for key, p in probs.items()
        )
        return probs, corr

    def check(self, x, out):
        ok = all(
            len(probs) == 16
            and min(probs.values()) >= 0.0
            and abs(sum(probs.values()) - 1.0) <= EXACT_TOL
            and abs(corr) <= 1.0 + EXACT_TOL
            for probs, corr in out
        )
        if ok and x[0] % 32 == self.sampled and len(self.samples) < self.ORACLE_OPS:
            self.samples.append((x[1:], [probs for probs, _ in out]))
        return ok

    def gate(self, ops):
        oracle = _load_oracle()
        return sum(
            any(
                max(abs(probs[k] - p) for k, p in self._oracle_probs(oracle, s).items())
                > EXACT_TOL
                for s, probs in zip(settings, results)
            )
            for settings, results in self.samples
        )

    @staticmethod
    def _oracle_probs(oracle, setting) -> dict:
        """Dense-oracle outcome probabilities, keyed as the library keys them.

        The routing of the two PBS photons is enumerated here from the PBS
        rule (H in mode 2 -> 2', H in mode 3 -> 3', V the other way, a wrong-
        port photon swapped), independently of the package's sparse code.
        """
        angles, tau, v0, err = setting
        w = (1.0 + math.exp(-((tau / COHERENCE_FS) ** 2)) * v0) / 2.0
        components, total = [], 0.0
        for flip2 in (False, True):
            for flip3 in (False, True):
                weight = err ** (flip2 + flip3) * (1.0 - err) ** (2 - flip2 - flip3)
                if weight == 0.0:
                    continue
                terms = {}
                for p2 in "HV":
                    for p3 in "HV":
                        p1, p4 = ("V" if p2 == "H" else "H"), ("V" if p3 == "H" else "H")
                        amp = 0.5 * (1 if p1 == "H" else -1) * (1 if p4 == "V" else -1)
                        two_to_2p = (p2 == "H") != flip2  # photon 2 enters in mode 2
                        three_to_2p = (p3 == "V") != flip3  # photon 3 enters in mode 3
                        if two_to_2p == three_to_2p:
                            continue  # both photons in one output: no four-fold
                        at_2p, at_3p = (p2, p3) if two_to_2p else (p3, p2)
                        terms[p1 + at_2p + at_3p + p4] = amp
                first, second = sorted(terms)
                psi = oracle.dense_from_terms(terms, 4)
                phi = oracle.dense_from_terms({first: terms[first], second: -terms[second]}, 4)
                mass = float(np.vdot(psi, psi).real)
                components += [
                    (weight * mass * w, psi / math.sqrt(mass)),
                    (weight * mass * (1.0 - w), phi / math.sqrt(mass)),
                ]
                total += weight * mass
        components = [(c / total, v) for c, v in components]
        probs = oracle.all_outcome_probabilities(components, list(angles))
        return {
            "".join(
                ("H" if a == 0.0 else "+") if s == "+" else ("V" if a == 0.0 else "-")
                for s, a in zip(key, angles)
            ): p
            for key, p in probs.items()
        }


class CliScenarios(Workload):
    """One `fourphoton.cli.main(["--scenario", X, "--seed", s, "--out", DIR])`
    call per op, in this process, cycling over the five scenarios.

    A separate `fourphoton` process per op would time mostly the interpreter
    and numpy start-up, which is not fourphoton's cost; the package's import
    is timed in set-up instead.
    """

    block = 2 * len(CLI_SCENARIOS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from fourphoton import cli

        self.cli = cli
        self.seeds = [int(s) for s in _rng(seed).integers(0, 2**32, CLI_SEEDS)]
        self.digests: dict[tuple, str] = {}
        workdir.mkdir(parents=True, exist_ok=True)

    def input(self, i):
        n = len(CLI_SCENARIOS)
        return CLI_SCENARIOS[i % n], self.seeds[(i // n) % CLI_SEEDS], self.workdir / f"op{i}"

    def op(self, x):
        scenario, seed, out = x
        return self.cli.main(["--scenario", scenario, "--seed", str(seed), "--out", str(out)])

    def check(self, x, code):
        scenario, seed, out = x
        expected = {f"{scenario}.csv", f"{scenario}_summary.txt"}
        if scenario == "swap-report":
            expected.add("swap-report.json")
        files = sorted(out.iterdir()) if out.is_dir() else []
        ok = code == 0 and {f.name for f in files} == expected
        digest = hashlib.sha256()
        for f in files:
            digest.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
        # outputs are byte-identical across repeats of a scenario and seed
        ok = ok and self.digests.setdefault((scenario, seed), digest.hexdigest()) == digest.hexdigest()
        shutil.rmtree(out, ignore_errors=True)
        return ok

    def extra_metrics(self, latencies):
        by_scenario = {s: [] for s in CLI_SCENARIOS}
        for (scenario, _, _), t in latencies:
            by_scenario[scenario].append(t)
        return {
            f"cli.main.{s}.ms": float(np.median(ts)) * 1e3 if ts else 0.0
            for s, ts in by_scenario.items()
        }


WORKLOADS = {
    "hv_ensemble": HvEnsemble,
    "delay_scan": DelayScan,
    "setting_sweep": SettingSweep,
    "cli_scenarios": CliScenarios,
}
