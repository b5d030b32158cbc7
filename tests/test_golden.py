"""Every CLI scenario at the default config and seed 1 reproduces its
committed output files byte for byte, and the same-outputs corpus of
tools/same_outputs.py reproduces its committed digests.

The goldens in tests/golden/ were written by
`fourphoton --scenario NAME --seed 1 --out tests/golden` for each scenario,
and tests/golden/same_outputs.json by
`python3 tools/same_outputs.py --write-baseline`.
"""

import json
import sys
from pathlib import Path

import pytest

from fourphoton.cli import SCENARIOS, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(ROOT / "tools"))  # a script, not a package
import same_outputs


def golden_files(scenario: str) -> list[str]:
    return sorted(
        p.name for p in GOLDEN.iterdir()
        if p.name.startswith((scenario + ".", scenario + "_"))
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_matches_golden(scenario, tmp_path):
    assert main(["--scenario", scenario, "--seed", "1", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == golden_files(scenario)
    for name in golden_files(scenario):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_same_outputs_corpus_matches_baseline(tmp_path):
    # the working tree's corpus in fresh interpreters, as the tool runs it, in
    # two concurrent halves
    corpus = same_outputs.run_corpus(ROOT, tmp_path, shards=2)
    baseline = json.loads(same_outputs.BASELINE.read_text())
    diffs = same_outputs.differences(baseline, same_outputs.keyed(corpus),
                                     same_outputs.labels(corpus))
    report = [f"{family}: {len(lines)} differ\n" + "\n".join(f"  {line}" for line in lines)
              for family, lines in diffs.items() if lines]
    assert not report, "\n".join(report)
