"""Every CLI scenario at the default config and seed 1 reproduces its
committed output files byte for byte.

The goldens in tests/golden/ were written by
`fourphoton --scenario NAME --seed 1 --out tests/golden` for each scenario.
"""

from pathlib import Path

import pytest

from fourphoton.cli import SCENARIOS, main

GOLDEN = Path(__file__).parent / "golden"


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
