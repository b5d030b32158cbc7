"""Same-outputs check: run one fixed, seeded corpus on two revisions of the
package and report, per family, whether every output is bit-identical.

    python3 tools/same_outputs.py PARENT [CHANGE]

PARENT and CHANGE are git revisions; CHANGE defaults to the working tree.
Each revision's `src` is extracted with `git archive` into a temporary
directory (the working tree is read in place), and the corpus runs in a fresh
interpreter per side with PYTHONPATH set to that side's `src`. The corpus is
fixed here, seeds included:

- cli: the files, exit code and stderr of every scenario at seeds 0-199, at the
  default config and at PBS error_rate 0.01, once with a `{}` config file, and
  of the error configs and flags of tests/test_cli.py (plus a detector that no
  photon reaches); and the stdout of --print-default-config;
- exact: random `exact_outcome_probabilities` calls (None angles, PBS errors,
  d*v0 = 1) and the post-selected and three-photon states, on relabelled,
  re-listed and permuted layouts;
- delay_scan: seeded count tables;
- chain: dephase -> phi+ via 45-degree coincidences -> CHSH, and on random
  dense rho each Bell projection and the coincidences at the pair ("1", "3'");
- bell_decompose: the source states and random four-photon states.

Each output is hashed from its exact floats (repr) and array bytes, and an
exception is recorded by type and message. The check prints one line per
family, "identical" or how many inputs differ followed by each of them on an
indented line, and exits 1 on any difference (2 if a side could not run). It is
not part of the test suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
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
        yield f"{name}: ghz_after_postselection", _outcome(
            lambda: _state(fp.ghz_after_postselection(app)))
        for mode, angle in itertools.product(sorted(app.mode_order()), (0.0, 45.0, 112.5)):
            yield f"{name}: three_photon_ghz({mode!r}, {angle})", _outcome(
                lambda: _state(fp.three_photon_ghz(app, mode, angle)))
        for i in range(160):
            angles = [None if rng.random() < 0.2 else float(rng.uniform(0, 180))
                      for _ in range(4)]
            setting = fp.MeasurementSetting(dict(zip(app.detector_ids(), angles)))
            tau = 0.0 if rng.random() < 0.2 else float(rng.uniform(-1500, 1500))
            v0 = 1.0 if rng.random() < 0.2 else float(rng.uniform(0, 1))
            pbs_error = [None, 0.0, app.pbs.error_rate, float(rng.uniform(0, 0.3))][i % 4]
            label = f"{name}: angles={angles} tau={tau} v0={v0} pbs_error={pbs_error}"
            yield label, _outcome(lambda: list(fp.exact_outcome_probabilities(
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
        yield label, _outcome(lambda: [
            (tau, sorted(t.counts.items()))
            for tau, t in fp.delay_scan(app, setting, delays, rates, time, seed, v0=v0)
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
        yield f"d={d} v0={v0} settings={settings}", _outcome(chain)
    # random dense mixtures of rank 3, so that every caller of the conditioning
    # step runs: each Bell projection, and the coincidences at another pair
    for i in range(100):
        vecs = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        weights = rng.dirichlet(np.ones(3))
        matrix = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
        calls = [(fp.project_bell, ("2'", "3'"), kind) for kind in fp.BELL_KINDS]
        calls.append((fp.phi_plus_via_45_coincidence, ("1", "3'")))
        for fn, *args in calls:
            def project():
                res = fn(fp.DensityMatrix(["1", "2'", "3'", "4"], matrix), *args)
                return (res.conditioned_state_14.matrix.tobytes(), res.projection_probability,
                        res.fidelity_to_target, res.visibility_45)
            yield f"dense rho {i}: {fn.__name__}({', '.join(map(repr, args))})", _outcome(project)


def _bell_family(fp, np):
    rng = np.random.default_rng(31)
    for name, app in _layouts(fp).items():
        yield f"{name}: source state", _outcome(
            lambda: list(fp.bell_decompose(fp.source_state(app)).items()))
    kets = ["".join(k) for k in itertools.product("HV", repeat=4)]
    for i in range(200):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        terms = {k: complex(a) for k, a in zip(kets, amps) if rng.random() < 0.7 or k == "HHHH"}
        pairs = [((1, 4), (2, 3)), ((1, 2), (3, 4)), ((1, 3), (2, 4))][i % 3]
        yield f"random state {i}, pairs {pairs}", _outcome(lambda: list(fp.bell_decompose(
            fp.state_from_terms([1, 2, 3, 4], ["1", "2'", "3'", "4"], terms), *pairs
        ).items()))


BEYOND_FLOAT = 10**400
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
    runs += [(s, seed, {"apparatus": {"pbs": {"error_rate": 0.01}}})
             for s in cli.SCENARIOS for seed in range(200)]
    runs += [(s, 1, c) for c in ERROR_CONFIGS for s in cli.SCENARIOS]
    for scenario, seed, config in runs:
        yield (f"--scenario {scenario} --seed {seed} config={config}",
               run(["--scenario", scenario, "--seed", str(seed)], config))
    for flags in ERROR_FLAGS:
        yield f"--scenario basis45-table {flags}", run(["--scenario", "basis45-table", *flags], None)
    yield "--print-default-config", run(["--print-default-config"], None)


FAMILIES = {"cli": _cli_family, "exact": _exact_family, "delay_scan": _delay_scan_family,
            "chain": _chain_family, "bell_decompose": _bell_family}


def emit() -> None:
    """Run the corpus against the importable `fourphoton` and print
    {family: [[input, digest], ...]} as JSON."""
    import numpy as np

    import fourphoton as fp

    json.dump({name: list(family(fp, np)) for name, family in FAMILIES.items()}, sys.stdout)


# ---- the driver -------------------------------------------------------------

def _side_src(rev: str | None, tmp: Path) -> Path:
    """The `src` directory of revision `rev`, or of the working tree."""
    if rev is None:
        return ROOT / "src"
    git = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True)
    if git.returncode != 0:
        print(f"{rev}: {git.stderr.decode().strip()}", file=sys.stderr)
        sys.exit(2)
    dest = tmp / "tree"
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def _run_side(rev: str | None, tmp: Path) -> dict:
    tmp.mkdir()
    # a fixed hash seed: some messages print a set, whose order follows it
    env = {**os.environ, "PYTHONPATH": str(_side_src(rev, tmp)), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONHASHSEED": "0"}
    work = tmp / "work"
    work.mkdir()
    code = "import sys; sys.path.insert(0, sys.argv[1]); import same_outputs; same_outputs.emit()"
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
                          cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{rev or 'working tree'}: the corpus did not run:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = argv[0], argv[1] if len(argv) == 2 else None
    with tempfile.TemporaryDirectory() as tmp:
        before = _run_side(parent, Path(tmp) / "parent")
        after = _run_side(change, Path(tmp) / "change")
    same = True
    for family in FAMILIES:
        differ = [b[0] if b[0] == a[0] else f"{b[0]} / {a[0]}"
                  for b, a in itertools.zip_longest(before[family], after[family],
                                                    fillvalue=("<none>", None))
                  if b != a]
        print(f"{family} ({len(after[family])} inputs): "
              + (f"{len(differ)} differ" if differ else "identical"))
        for label in differ:
            print(f"  {label}")
        same = same and not differ
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
