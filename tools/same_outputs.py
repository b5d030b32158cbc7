"""Same-outputs check: run one fixed, seeded corpus and report, per family,
whether every output is bit-identical, between two revisions or against the
baseline that the test suite pins.

    python3 tools/same_outputs.py PARENT [CHANGE]
    python3 tools/same_outputs.py --write-baseline

PARENT and CHANGE are git revisions; CHANGE defaults to the working tree.
Each revision's `src` and `tools` are extracted with `git archive` into a
temporary directory (the working tree is read in place), and each side runs
its own revision's corpus in a fresh interpreter with PYTHONPATH set to that
side's `src`, so an input that a change adds to or removes from the corpus
shows as added or removed. The corpus is fixed here, seeds included:

- cli: the files, exit code and stderr of every scenario at seeds 0-199, at the
  default config and at PBS error_rate 0.01, once with a `{}` config file, at
  seeds 0-9 with the printed defaults' detectors reversed and an integer
  error_rate, and at seeds 0-9 with visibility_zero_delay 1.0 (the pure
  channel at zero delay), and of the error configs and flags of
  tests/test_cli.py (plus a detector that no photon reaches); and the stdout
  of --print-default-config;
- exact: random `exact_outcome_probabilities` calls (None angles, PBS errors,
  d*v0 = 1) and the post-selected and three-photon states, on relabelled,
  re-listed and permuted layouts; and on the default layout, fixed angles 0,
  22.5, 45, 67.5, 90, 135, 5e-324 and the float below 180, under an ideal
  PBS and a PBS error, with a pure and a mixed channel;
- delay_scan: seeded count tables at seeds 0-59 on random scans, at seeds 0,
  2**32, 2**64+5, 2**96, 10**30 and 10**5000 on diagonal scans of 1, 2 and
  100 points, and at seeds 0-9 on symmetric diagonal scans of 25 points at
  v0 = 1.0 (the pure point tau = 0 mid-scan), under an ideal PBS and a PBS
  error;
- chain: dephase -> phi+ via 45-degree coincidences -> CHSH, and on random
  dense rho the coincidences at the pair ("1", "3'");
- bell_decompose: the source states and random four-photon states;
- hostile: `draw_counts` with each value of a fixed hostile list as one
  probability, at a rate of 1e300, with an integer expected count beyond float
  range, at zero rates and at zero and nonzero expected counts mixed;
  `state_from_terms` with each value as one amplitude, with hostile photons,
  and with a key or mode list of the wrong length; `tensor` and `bell_state`
  on a shared photon; package functions given an object of the wrong type;
  a ket, terms, modes or matrix of the wrong shape; the integer 5 as each
  container or sequence argument; and a one-shot iterator of keys or modes.

Each output is hashed from its exact floats (repr) and array bytes, and an
exception is recorded by type and message. The check prints one line per
family, "identical" or how many inputs differ followed by each of them on an
indented line (changed, added or removed), and exits 1 on any difference (2 if
a side could not run).

--write-baseline runs the working tree's corpus and writes BASELINE, which
tests/test_golden.py compares the corpus against: per family, each input keyed
by the first 12 hex digits of its label's sha256, with the first 16 of its
output's digest. A change that means to move an output regenerates the file,
and the file's diff lists the inputs that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# ---- the corpus, run inside one side's interpreter -------------------------

def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _outcome(call) -> str:
    """The digest of what `call()` returns, or of the exception it raises."""
    try:
        return _digest(call())
    except Exception as exc:  # an error is an output too
        return _digest(type(exc).__name__, str(exc))


def _state(result) -> tuple:
    """A (state, probability) result as plain values."""
    state, prob = result
    return state.photons, list(state.amps.items()), prob


def _layouts(fp) -> dict:
    """The apparatus layouts of the exact family, by name."""
    pbs = fp.default_apparatus().pbs
    dets = dict(fp.default_apparatus().detectors)

    def sources(pa, ma, pb, mb):
        return (fp.PairSource(pa, ma), fp.PairSource(pb, mb))

    out = {f"default-{err}": fp.default_apparatus(err) for err in (0.0, 0.01, 0.3)}
    out["swapped-detectors"] = fp.Apparatus(
        fp.default_apparatus().sources, pbs, {**dets, "D1": "2'", "D2": "1"})
    out["reversed-sources"] = fp.Apparatus(
        sources((3, 4), ("3", "4"), (1, 2), ("1", "2")), pbs, dets)
    out["relabelled-pairs"] = fp.Apparatus(
        sources((4, 3), ("1", "2"), (2, 1), ("3", "4")), pbs, dets)
    out["swapped-labels"] = fp.Apparatus(
        sources((3, 4), ("1", "2"), (1, 2), ("3", "4")), pbs, dets)
    out["unreachable-detector"] = fp.Apparatus(
        fp.default_apparatus().sources, pbs, {**dets, "D4": "x"})
    return out


def _exact_family(fp, np):
    rng = np.random.default_rng(19)
    for name, app in _layouts(fp).items():
        yield f"{name}: ghz_after_postselection", partial(_outcome,
            lambda: _state(fp.ghz_after_postselection(app)))
        for mode, angle in itertools.product(sorted(app.mode_order()), (0.0, 45.0, 112.5)):
            yield f"{name}: three_photon_ghz({mode!r}, {angle})", partial(_outcome,
                lambda: _state(fp.three_photon_ghz(app, mode, angle)))
        for i in range(160):
            angles = [None if rng.random() < 0.2 else float(rng.uniform(0, 180))
                      for _ in range(4)]
            setting = fp.MeasurementSetting(dict(zip(app.detector_ids(), angles)))
            tau = 0.0 if rng.random() < 0.2 else float(rng.uniform(-1500, 1500))
            v0 = 1.0 if rng.random() < 0.2 else float(rng.uniform(0, 1))
            pbs_error = [None, 0.0, app.pbs.error_rate, float(rng.uniform(0, 0.3))][i % 4]
            label = f"{name}: angles={angles} tau={tau} v0={v0} pbs_error={pbs_error}"
            yield label, partial(_outcome, lambda: list(fp.exact_outcome_probabilities(
                app, setting, delay=fp.DelayElement(tau), v0=v0, pbs_error=pbs_error
            ).items()))
    # fixed angles where cos or sin is exact, zero or tiny: all four detectors at
    # one angle, and four consecutive ones of the list, cyclically
    app = fp.default_apparatus()
    special = [0.0, 22.5, 45.0, 67.5, 90.0, 135.0, 5e-324, math.nextafter(180.0, 0.0)]
    for i, a in enumerate(special):
        for angles in ([a] * 4, [special[(i + k) % len(special)] for k in range(4)]):
            setting = fp.MeasurementSetting(dict(zip(app.detector_ids(), angles)))
            channels = ((0.0, 1.0), (300.0, 0.79))  # (tau, v0): pure, then mixed
            for pbs_error, (tau, v0) in itertools.product((None, 0.01), channels):
                label = f"special: angles={angles} tau={tau} v0={v0} pbs_error={pbs_error}"
                yield label, partial(_outcome, lambda: list(fp.exact_outcome_probabilities(
                    app, setting, delay=fp.DelayElement(tau), v0=v0, pbs_error=pbs_error
                ).items()))


def _delay_scan_family(fp, np):
    rng = np.random.default_rng(23)
    layouts = [app for name, app in _layouts(fp).items() if name != "unreachable-detector"]
    for seed in range(60):
        app = layouts[seed % len(layouts)]
        angles = [None if rng.random() < 0.2 else float(rng.uniform(0, 180)) for _ in range(4)]
        setting = fp.MeasurementSetting(dict(zip(app.detector_ids(), angles)))
        delays = [float(x) for x in rng.uniform(-1500, 1500, int(rng.integers(1, 26)))]
        rates = fp.RateModel(float(rng.uniform(0, 0.1)), float(rng.uniform(0, 1e-3)))
        time, v0 = float(rng.uniform(1, 30000)), float(rng.uniform(0, 1))
        label = f"seed {seed}: angles={angles} delays={len(delays)} time={time} v0={v0}"
        yield label, partial(_outcome, lambda: [
            (tau, sorted(t.counts.items()))
            for tau, t in fp.delay_scan(app, setting, delays, rates, time, seed, v0=v0)
        ])
    # seeds of one to 520 entropy words (2**96 and wider reach numpy's mixing
    # beyond its 4-word pool), each on grids of 1, 2 and 100 points
    app = fp.default_apparatus()
    setting = fp.diagonal_setting(app)
    for (name, seed), n in itertools.product(
            [("0", 0), ("2**32", 2**32), ("2**64+5", 2**64 + 5), ("2**96", 2**96),
             ("10**30", 10**30), ("10**5000", 10**5000)], (1, 2, 100)):
        delays = [float(x) for x in np.linspace(-1500, 1500, n)]
        yield f"fixed seed {name}: diagonal, points={n}", partial(_outcome, lambda: [
            (tau, sorted(t.counts.items()))
            for tau, t in fp.delay_scan(app, setting, delays, fp.RateModel(), 6000.0, seed)
        ])
    # tau = 0 at v0 = 1 is pure amid dephased points: a scan of two row stacks
    delays = [float(x) for x in np.linspace(-1500, 1500, 25)]
    for pbs_error, seed in itertools.product((0.0, 0.01), range(10)):
        app = fp.default_apparatus(pbs_error)
        setting = fp.diagonal_setting(app)
        label = f"pure mid-scan seed {seed}: diagonal, points=25, v0=1.0, pbs_error={pbs_error}"
        yield label, partial(_outcome, lambda: [
            (tau, sorted(t.counts.items()))
            for tau, t in fp.delay_scan(app, setting, delays, fp.RateModel(), 6000.0, seed,
                                        v0=1.0)
        ])


def _chain_family(fp, np):
    rng = np.random.default_rng(29)
    ghz = fp.ghz_after_postselection(fp.default_apparatus())[0]
    draws = [(1.0, 1.0), (0.0, 0.0), (1.0, 0.79)]
    draws += [tuple(float(x) for x in rng.uniform(0, 1, 2)) for _ in range(300)]
    for d, v0 in draws:
        settings = tuple(tuple(float(x) for x in rng.uniform(0, 180, 2)) for _ in range(2))

        def chain():
            rho = fp.dephase_by_distinguishability(ghz, d, v0)
            res = fp.phi_plus_via_45_coincidence(rho)
            pair = res.conditioned_state_14
            return (rho.matrix.tobytes(), pair.matrix.tobytes(), res.projection_probability,
                    res.fidelity_to_target, res.visibility_45, fp.chsh_value(pair),
                    fp.chsh_value(pair, settings))
        yield f"d={d} v0={v0} settings={settings}", partial(_outcome, chain)
    # random dense mixtures of rank 3, so that the conditioning step also runs
    # on a generic rho, at a pair other than the PBS outputs
    pair_modes = ("1", "3'")
    for i in range(100):
        vecs = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        weights = rng.dirichlet(np.ones(3))
        matrix = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))

        def project():
            rho = fp.DensityMatrix(["1", "2'", "3'", "4"], matrix)
            res = fp.phi_plus_via_45_coincidence(rho, pair_modes)
            return (res.conditioned_state_14.matrix.tobytes(), res.projection_probability,
                    res.fidelity_to_target, res.visibility_45)
        yield (f"dense rho {i}: phi_plus_via_45_coincidence({pair_modes!r})",
               partial(_outcome, project))


def _bell_family(fp, np):
    rng = np.random.default_rng(31)
    for name, app in _layouts(fp).items():
        yield f"{name}: source state", partial(_outcome,
            lambda: list(fp.bell_decompose(fp.source_state(app)).items()))
    kets = ["".join(k) for k in itertools.product("HV", repeat=4)]
    for i in range(200):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        terms = {k: complex(a) for k, a in zip(kets, amps) if rng.random() < 0.7 or k == "HHHH"}
        pairs = [((1, 4), (2, 3)), ((1, 2), (3, 4)), ((1, 3), (2, 4))][i % 3]
        yield f"random state {i}, pairs {pairs}", partial(_outcome, lambda: list(fp.bell_decompose(
            fp.state_from_terms([1, 2, 3, 4], ["1", "2'", "3'", "4"], terms), *pairs
        ).items()))


BEYOND_FLOAT = 10**400


def _hostile_family(fp, np):
    def draw(p, rates):
        return sorted(fp.draw_counts({"HHHH": 0.5, "VVVV": p}, rates, 6000.0, 1).counts.items())

    def plain(state):
        return state.photons, list(state.amps.items())

    def amplitude(a):
        return plain(fp.state_from_terms([1, 2], ["a", "b"], {"HV": a, "VH": 0.5}))

    values = {"nan": float("nan"), "-0.5": -0.5, "inf": float("inf"), "1e300": 1e300,
              "1j": 1j, "np.complex128": np.complex128(0.5), "np.complex64": np.complex64(0.5),
              "None": None, "'0.5'": "0.5", "True": True, "10**400": BEYOND_FLOAT,
              "Fraction": Fraction(1, 2), "one-element array": np.array([0.5])}
    for name, x in values.items():
        yield f"draw_counts: probability {name}", partial(_outcome, partial(draw, x, fp.RateModel()))
        yield f"state_from_terms: amplitude {name}", partial(_outcome, partial(amplitude, x))
    yield "draw_counts: rate 1e300", partial(_outcome, partial(draw, 0.5, fp.RateModel(1e300)))
    for name, x in {"True": True, "1.5": 1.5, "None": None, "'a'": "a", "[1]": [1],
                    "np.int64(2)": np.int64(2)}.items():
        yield f"state_from_terms: photon {name}", partial(_outcome, lambda: plain(
            fp.state_from_terms([x, 3], ["a", "b"], {"HV": 1, "VH": 1})))

    app, hv = fp.default_apparatus(), fp.hv_setting(fp.default_apparatus())
    pair = fp.bell_state("phi+", 1, 2)
    calls = {
        "state_from_terms: key 'HVH'":
            lambda: plain(fp.state_from_terms([1, 2], ["a", "b"], {"HVH": 1, "HVV": 1})),
        "state_from_terms: key 'H'": lambda: plain(fp.state_from_terms([1, 2], ["a", "b"], {"H": 1})),
        "state_from_terms: three modes":
            lambda: plain(fp.state_from_terms([1, 2], ["a", "b", "c"], {"HV": 1})),
        "state_from_terms: one mode": lambda: plain(fp.state_from_terms([1, 2], ["a"], {"HV": 1})),
        "tensor: shared photon": lambda: plain(fp.tensor(pair, fp.bell_state("phi+", 2, 3))),
        "bell_state('phi+', 1, 1)": lambda: plain(fp.bell_state("phi+", 1, 1)),
        "bell_state('phi+', 1, True)": lambda: plain(fp.bell_state("phi+", 1, True)),
        "draw_counts: integer expected count beyond float range":
            lambda: fp.draw_counts({"H": 1}, fp.RateModel(10**300, 0), 10**300, 1).counts,
        "draw_counts: zero rates":
            lambda: fp.draw_counts({"HHHH": 0.5, "VVVV": 0.5}, fp.RateModel(0.0, 0.0), 6000.0, 1
                                   ).counts,
        "draw_counts: zero and nonzero expected counts": lambda: fp.draw_counts(
            {"HHHH": 0.0, "HHHV": 0.5, "HHVH": -0.0, "VVVV": 0.5}, fp.RateModel(1.0, 0.0),
            6000.0, 1).counts,
        # an object of the wrong type
        "exact_outcome_probabilities(None, hv)": lambda: fp.exact_outcome_probabilities(None, hv),
        "ghz_after_postselection(None)": lambda: fp.ghz_after_postselection(None),
        "monte_carlo_counts(None, ...)":
            lambda: fp.monte_carlo_counts(None, hv, fp.RateModel(), 1.0, 1).counts,
        "delay_scan(None, ...)": lambda: fp.delay_scan(None, hv, [0.0], fp.RateModel(), 1.0, 1),
        "three_photon_ghz(None, '1', 0.0)": lambda: fp.three_photon_ghz(None, "1", 0.0),
        "dephase_by_distinguishability(None, 1.0)":
            lambda: fp.dephase_by_distinguishability(None, 1.0),
        "bell_decompose(None)": lambda: fp.bell_decompose(None),
        "tensor(pair, None)": lambda: plain(fp.tensor(pair, None)),
        "fidelity(None, pair)": lambda: fp.fidelity(None, pair),
        "mix([(1.0, None)])": lambda: fp.mix([(1.0, None)]).matrix.tobytes(),
        "draw_counts(None, ...)": lambda: fp.draw_counts(None, fp.RateModel(), 1.0, 1).counts,
        "visibility_from_counts(None, ...)":
            lambda: fp.visibility_from_counts(None, ["e"], ["o"]),
        "distinguishability(None)": lambda: fp.distinguishability(None),
        "feasibility_estimate(10, None)": lambda: fp.feasibility_estimate(10, None),
        # a ket, terms, modes or matrix of the wrong shape
        "PureState: three-element slot": lambda: plain(fp.PureState([1], {(("H", "a", "x"),): 1})),
        "PureState: slot 5": lambda: plain(fp.PureState([1], {(5,): 1})),
        "state_from_terms: key 5": lambda: plain(fp.state_from_terms([1, 2], ["a", "b"], {5: 1})),
        "state_from_terms: modes None": lambda: plain(fp.state_from_terms([1, 2], None, {"HV": 1})),
        "state_from_terms: terms None": lambda: plain(fp.state_from_terms([1, 2], ["a", "b"], None)),
        "DensityMatrix(['1'], 'ab')": lambda: fp.DensityMatrix(["1"], "ab").matrix.tobytes(),
    }
    # a container or sequence argument that is none: the integer 5
    source, rho = fp.source_state(app), fp.dephase_by_distinguishability(
        fp.ghz_after_postselection(app)[0], 1.0)
    sources, dets, io_modes = app.sources, dict(app.detectors), (("2", "3"), ("2'", "3'"))
    calls.update({f"{name}: 5": call for name, call in {
        "Apparatus.sources": lambda: fp.Apparatus(5, app.pbs, dets),
        "Apparatus.pbs": lambda: fp.Apparatus(sources, 5, dets),
        "Apparatus.detectors": lambda: fp.Apparatus(sources, app.pbs, 5),
        "PairSource.photons": lambda: fp.PairSource(5, ("1", "2")),
        "PairSource.modes": lambda: fp.PairSource((1, 2), 5),
        "PbsElement.input_modes": lambda: fp.PbsElement(5, io_modes[1]),
        "PbsElement.output_modes": lambda: fp.PbsElement(io_modes[0], 5),
        "PureState.photons": lambda: plain(fp.PureState(5, {(("H", "a"),): 1})),
        "state_from_terms.photons": lambda: plain(fp.state_from_terms(5, ["a", "b"], {"HV": 1})),
        "DensityMatrix.modes": lambda: fp.DensityMatrix(5, np.eye(2) / 2).matrix.tobytes(),
        "mode_view.mode_order": lambda: pair.mode_view(5),
        "dense.mode_order": lambda: pair.dense(5).tobytes(),
        "mix.components": lambda: fp.mix(5).matrix.tobytes(),
        "mix.mode_order": lambda: fp.mix([(1.0, pair)], 5).matrix.tobytes(),
        "bell_decompose.pair_a": lambda: fp.bell_decompose(source, 5),
        "bell_decompose.pair_b": lambda: fp.bell_decompose(source, (1, 4), 5),
        "phi_plus_via_45_coincidence.pair_modes":
            lambda: fp.phi_plus_via_45_coincidence(rho, 5).projection_probability,
        "visibility_from_counts.even_parity_keys":
            lambda: fp.visibility_from_counts({"e": 5, "o": 1}, 5, ["o"]),
        "visibility_from_counts.odd_parity_keys":
            lambda: fp.visibility_from_counts({"e": 5, "o": 1}, ["e"], 5),
    }.items()})
    # a one-shot iterator, which a check must not use up before the call reads it
    calls.update({
        "visibility_from_counts: iterator of even keys":
            lambda: fp.visibility_from_counts({"e": 5, "o": 1}, iter(["e"]), ["o"]),
        "state_from_terms: iterator of modes": lambda: plain(
            fp.state_from_terms([1, 2], iter(["a", "b"]), {"HV": 1, "VH": 1})),
        "mode_view: iterator of modes": lambda: list(pair.mode_view(iter(["1", "2"])).items()),
    })
    for label, call in calls.items():
        yield label, partial(_outcome, call)


ERROR_CONFIGS = [
    # the error configs of tests/test_cli.py
    {"scan_delays_fs": []},
    {"scan_delays_fs": [0.0, float("nan")]},
    {"scan_delays_fs": 0.0},
    {"rates": {"background_fourfold_rate": "0.5"}},
    {"rates": {"background_fourfold_rate": float("nan")}},
    {"rates": {"fourfold_rate_desired": float("inf")}},
    {"rates": {"fourfold_rate_desired": -1}},
    {"rates": {"background_fourfold_rate": -1}},
    {"rates": {"background_fourfold_rate": -1e-300}},
    {"rates": {"detector_efficiency": 1.0}},
    {"visibility_zero_delay": 1.5},
    {"visibility_zero_delay": "0.79"},
    {"scan_time_per_point_s": -1},
    {"scan_time_per_point_s": 1e300},
    {"coherence_time_fs": float("nan")},
    {"bell_test_target_events": "x"},
    {"visibility_zero_delay": BEYOND_FLOAT},
    {"coherence_time_fs": BEYOND_FLOAT},
    {"scan_delays_fs": [0.0, -BEYOND_FLOAT]},
    {"bell_test_target_events": BEYOND_FLOAT},
    {"rates": {"fourfold_rate_desired": BEYOND_FLOAT}},
    {"rates": {"fourfold_rate_desired": True}},
    {"rates": {"background_fourfold_rate": BEYOND_FLOAT}},
    {"apparatus": {"pbs": {"error_rate": BEYOND_FLOAT}}},
    {"apparatus": {"pbs": {"error_rate": False}}},
    {"apparatus": {"pbs": {"error_rate": 2}}},
    {"apparatus": {"pbs": {"eror_rate": 0.01}}},
    {"visibilty": 0.5},
    {"apparatus": {"sources": [{"photons": [1], "modes": ["1", "2"]},
                               {"photons": [3, 4], "modes": ["3", "4"]}]}},
    {"apparatus": {"sources": [{"photons": [True, 2], "modes": ["1", "2"]},
                               {"photons": [3, 4], "modes": ["3", "4"]}]}},
    {"apparatus": {"pbs": {"inputs": ["2"]}}},
    {"apparatus": {"detectors": {"D1": 1, "D2": "2'", "D3": "3'", "D4": "4"}}},
    {"apparatus": {"detectors": {"D1": "1"}}},
    {"apparatus": {"sources": [{"photons": [1, 2], "modes": ["1", "2"]}]}},
    {"apparatus": {"sources": [{"photons": [1, 2], "modes": ["2", "2"]},
                               {"photons": [3, 4], "modes": ["3", "4"]}]}},
    {"apparatus": {"sources": [{"photons": [1, 2], "modes": ["1", "2"]},
                               {"photons": [2, 4], "modes": ["3", "4"]}]}},
    {"apparatus": {"sources": []}},
    {"apparatus": {"sources": [{"photons": [1, 2], "modes": ["2", "3"]},
                               {"photons": [3, 4], "modes": ["1", "4"]}],
                   "pbs": {"error_rate": 0.01}}},
    # a detector that no photon reaches: post-selection keeps nothing
    {"apparatus": {"detectors": {"D1": "1", "D2": "2'", "D3": "3'", "D4": "x"}}},
]
ERROR_FLAGS = [["--seed", "-1"], ["--time", "-5"], ["--time", "nan"], ["--time", "1e300"],
               ["--delay", "nan"], ["--delay", "inf"], ["--scenario", "frobnicate"]]


def _cli_family(fp, np):
    from fourphoton import cli

    def run(args: list[str], config: dict | None) -> str:
        # relative paths, so that no message holds a side's directory
        if config is not None:
            Path("cfg.json").write_text(json.dumps(config))
            args = [*args, "--config", "cfg.json"]
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = cli.main([*args, "--out", "out"])
        files = sorted((p.name, p.read_bytes()) for p in Path("out").glob("*")) \
            if Path("out").is_dir() else None
        shutil.rmtree("out", ignore_errors=True)
        return _digest(code, err.getvalue(), out.getvalue(), files)

    runs = [(s, seed, None) for s in cli.SCENARIOS for seed in range(200)]
    # the merged load path at the default config, as the no-config runs
    runs += [(s, 1, {}) for s in cli.SCENARIOS]
    # the printed defaults with an equal apparatus: detectors listed in reverse
    # and an integer error_rate, which run on the module's default apparatus
    equal = cli.default_config()
    equal["apparatus"]["detectors"] = dict(reversed(equal["apparatus"]["detectors"].items()))
    equal["apparatus"]["pbs"]["error_rate"] = 0
    runs += [(s, seed, equal) for s in cli.SCENARIOS for seed in range(10)]
    # the pure channel at zero delay, d*v0 = 1
    runs += [(s, seed, {"visibility_zero_delay": 1.0}) for s in cli.SCENARIOS for seed in range(10)]
    runs += [(s, seed, {"apparatus": {"pbs": {"error_rate": 0.01}}})
             for s in cli.SCENARIOS for seed in range(200)]
    runs += [(s, 1, c) for c in ERROR_CONFIGS for s in cli.SCENARIOS]
    for scenario, seed, config in runs:
        yield (f"--scenario {scenario} --seed {seed} config={config}",
               partial(run, ["--scenario", scenario, "--seed", str(seed)], config))
    for flags in ERROR_FLAGS:
        yield (f"--scenario basis45-table {flags}",
               partial(run, ["--scenario", "basis45-table", *flags], None))
    yield "--print-default-config", partial(run, ["--print-default-config"], None)


FAMILIES = {"cli": _cli_family, "exact": _exact_family, "delay_scan": _delay_scan_family,
            "chain": _chain_family, "bell_decompose": _bell_family, "hostile": _hostile_family}


def emit(shard: int = 0, shards: int = 1) -> None:
    """Run the corpus against the importable `fourphoton` and print
    {family: [[input, digest], ...]} as JSON: of each family, the inputs
    whose index in it is `shard` modulo `shards`."""
    import numpy as np

    import fourphoton as fp

    # each family yields (input, a call that returns its digest); a call runs
    # before the family makes its next input, so it sees that input's values
    json.dump({name: [[label, call()] for i, (label, call) in enumerate(family(fp, np))
                      if i % shards == shard]
               for name, family in FAMILIES.items()}, sys.stdout)


# ---- the driver -------------------------------------------------------------

BASELINE = ROOT / "tests" / "golden" / "same_outputs.json"


def _side_tree(rev: str | None, tmp: Path) -> Path:
    """The tree that holds the `src` and `tools` of revision `rev`, or the
    working tree."""
    if rev is None:
        return ROOT
    git = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src", "tools"],
                         capture_output=True)
    if git.returncode != 0:
        raise RuntimeError(git.stderr.decode().strip())
    dest = tmp / "tree"
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_corpus(tree: Path, work: Path, shards: int = 1) -> dict:
    """{family: [[input, digest], ...]}: the corpus of `tree`'s `tools` run
    against its `src` in fresh interpreters in a new directory under `work`, as
    `shards` concurrent processes that each run a disjoint part of it (then
    each family lists the parts one after the other, not in corpus order)."""
    # a fixed hash seed: some messages print a set, whose order follows it
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONHASHSEED": "0"}
    code = "import sys; sys.path.insert(0, sys.argv[1]); import same_outputs; "
    procs = []
    for shard in range(shards):
        (work / str(shard)).mkdir(parents=True)
        # an unsharded run calls emit() bare, as an older revision's tool takes it
        call = f"same_outputs.emit({shard}, {shards})" if shards > 1 else "same_outputs.emit()"
        procs.append(subprocess.Popen([sys.executable, "-c", code + call, str(tree / "tools")],
                                      cwd=work / str(shard), env=env, text=True,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    corpus, results = {}, [proc.communicate() for proc in procs]
    for proc, (out, err) in zip(procs, results):
        if proc.returncode != 0:
            raise RuntimeError(f"the corpus did not run:\n{err}")
        for family, inputs in json.loads(out).items():
            corpus.setdefault(family, []).extend(inputs)
    return corpus


def label_key(label: str) -> str:
    return hashlib.sha256(label.encode()).hexdigest()[:12]


def keyed(corpus: dict) -> dict:
    """The baseline form of a corpus: per family, {label_key(input): the first
    16 hex digits of its digest}, in corpus order."""
    return {family: {label_key(label): digest[:16] for label, digest in inputs}
            for family, inputs in corpus.items()}


def labels(corpus: dict) -> dict:
    """Per family, {label_key(input): input}."""
    return {family: {label_key(label): label for label, _ in inputs}
            for family, inputs in corpus.items()}


def differences(before: dict, after: dict, names: dict) -> dict:
    """Per family of `before` or `after` (both in the baseline form), one line
    per input whose output changed, that was added or that was removed, named
    by `names` (per family, key -> input), or by its key where no name is
    known."""
    out = {}
    for family in {**before, **after}:
        old, new, name = before.get(family, {}), after.get(family, {}), names.get(family, {})
        out[family] = [f"{how}: {name.get(key, f'input {key}')}" for key, how in (
            *((k, "changed") for k in new if k in old and new[k] != old[k]),
            *((k, "added") for k in new if k not in old),
            *((k, "removed") for k in old if k not in new),
        )]
    return out


def _report(diffs: dict, after: dict) -> bool:
    """Print one line per family and each difference; True if there is none."""
    for family, lines in diffs.items():
        print(f"{family} ({len(after.get(family, {}))} inputs): "
              + (f"{len(lines)} differ" if lines else "identical"))
        for line in lines:
            print(f"  {line}")
    return not any(diffs.values())


def main(argv: list[str]) -> int:
    if argv == ["--write-baseline"]:
        with tempfile.TemporaryDirectory() as tmp:
            corpus = run_corpus(ROOT, Path(tmp))
        BASELINE.write_text(json.dumps(keyed(corpus), indent=0) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}: "
              + ", ".join(f"{family} {len(inputs)}" for family, inputs in corpus.items()))
        return 0
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, rev in (("parent", argv[0]), ("change", argv[1] if len(argv) == 2 else None)):
            try:
                sides.append(run_corpus(_side_tree(rev, Path(tmp) / name),
                                        Path(tmp) / name / "work"))
            except RuntimeError as exc:
                print(f"{rev or 'working tree'}: {exc}", file=sys.stderr)
                return 2
    before, after = sides
    names = labels({f: before.get(f, []) + after.get(f, []) for f in {**before, **after}})
    after_keyed = keyed(after)
    return 0 if _report(differences(keyed(before), after_keyed, names), after_keyed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
