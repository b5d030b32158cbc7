"""Self-tests of the benchmark harness (not of fourphoton).

  python3 -m pytest perfbench/selftest.py -q      (or: python3 perfbench/selftest.py)

The file name keeps these tests out of the repository's default test run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fourphoton import DensityMatrix, elements, experiment, states  # noqa: E402


def test_percentile_rule_needs_92_samples_for_10_beyond_p90():
    for n, enough in ((50, False), (91, False), (92, True), (1000, True)):
        samples = np.random.default_rng(n).permutation(np.arange(1.0, n + 1))
        assert (worker.beyond(samples, worker.percentile(samples, 90)) >= 10) is enough
    samples = np.arange(1.0, 102.0)
    assert worker.percentile(samples, 50) == 51.0
    assert worker.beyond(samples, worker.percentile(samples, 90)) == 10


class _ThreeKernels:
    """A workload whose op is three calls of the reference kernel."""

    def input(self, i):
        return i

    def op(self, x):
        for _ in range(3):
            worker.reference_kernel()

    def check(self, x, out):
        return True

    def gate(self, ops):
        return 0


def test_op_cost_is_measured_in_reference_kernel_calls():
    result = worker.timed(_ThreeKernels(), 0.6, np.ones((worker.MAX_OPS, 2)))
    assert result["slices"] >= 2
    assert result["failed"] == 0
    assert result["cost_ref"] == pytest.approx(3.0, rel=0.25)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["other_root", 11.0, 12.5, -1],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0, 1.5]
    # self times partition the time covered by the top-level spans
    assert sum(spans.self_times(recorded)) == 10.0 + 1.5


def test_traced_calls_record_nested_spans():
    app = experiment.default_apparatus()
    tracer = spans.Tracer()
    with tracer.installed():
        experiment.exact_outcome_probabilities(app, experiment.hv_setting(app))
    names = [s[0] for s in tracer.spans]
    assert names[0] == "experiment.exact_outcome_probabilities"
    assert tracer.spans[0][3] == -1
    assert names.count("states.detection_amplitude") == 32
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parents["experiment.postselect_fourfold"] == "experiment.ghz_after_postselection"
    metrics, self_s = spans.block_metrics(tracer, 1)
    assert metrics["experiment.exact_outcome_probabilities.calls_per_distinct_input"] == 1.0
    assert metrics["experiment.postselect_fourfold.kept_mass"] == pytest.approx(0.5)
    assert all(s >= 0.0 for s in spans.self_times(tracer.spans))
    top = sum(e - s for _, s, e, p in tracer.spans if p < 0)
    assert self_s == pytest.approx(top, rel=1e-9)


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "fourphoton" or n.startswith("fourphoton.")]
    return {(id(m), k): v for m in mods for k, v in vars(m).items()} | {
        ("DensityMatrix", k): v for k, v in vars(DensityMatrix).items()
    }


def test_every_wrapped_name_is_restored(tmp_path):
    wl = workloads.CliScenarios(0, tmp_path)  # imports fourphoton.cli too
    before = _bindings()
    original = states.detection_amplitude
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            import fourphoton

            for ns in (fourphoton, states, experiment):
                assert ns.detection_amplitude is not original
            assert vars(DensityMatrix)["validate"] is not before[("DensityMatrix", "validate")]
            assert elements.apply_pbs is not before[(id(elements), "apply_pbs")]
            assert wl.inprocess_op(wl.input(0)) == 0  # hv-table
            raise RuntimeError("a failing traced block still restores")
    assert {"cli.main", "experiment.monte_carlo_counts"} <= {s[0] for s in tracer.spans}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    indices = [0, 1, 2, 7, 1023, 1024, 1025, 5000]
    first = [cls(42, tmp_path).input(i) for i in indices]
    again = [cls(42, tmp_path).input(i) for i in indices]
    other = [cls(43, tmp_path).input(i) for i in indices]
    assert first == again
    assert first != other


def test_setting_sweep_inputs_never_repeat_and_pair_ideal_with_pbs_error(tmp_path):
    wl = workloads.SettingSweep(7, tmp_path)
    xs = [wl.input(i) for i in range(1500)]
    settings = [s for x in xs for s in x[1:]]
    assert len(set(settings)) == len(settings)
    assert all(x[1][3] == 0.0 and 0.0 < x[2][3] <= 0.05 for x in xs)


def test_pbs_error_oracle_matches_library(tmp_path):
    wl = workloads.SettingSweep(3, tmp_path)
    oracle = workloads._load_oracle()
    for i in range(4):
        x = wl.input(i)
        for setting, (probs, _) in zip(x[1:], wl.op(x)):
            ref = wl._oracle_probs(oracle, setting)
            assert ref.keys() == probs.keys()
            assert max(abs(probs[k] - p) for k, p in ref.items()) <= workloads.EXACT_TOL


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
