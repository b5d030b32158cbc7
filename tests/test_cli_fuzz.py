"""Every CLI input ends in a result or a documented exit code, never a
traceback.

Each example replaces or deletes one path of the default config tree and may
replace one of --time, --seed and --delay. The replacements are values of
another type or numbers out of range. The run must exit 0, 1, 2 or 3. A
nonzero exit prints exactly one stderr line, and exits 1 and 2 write no output
file. Exit 0 prints nothing on stderr, writes no NaN, and names in its summary
a count table that holds no counts.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourphoton.cli import SCENARIOS, default_config, main

BEYOND_FLOAT = 10**400
DELETE = object()
VALUES = [
    DELETE, "x", True, False, [], [1.0], {}, {"x": 1}, None,
    -1, -1.5, 0, 0.0, 1e-300, math.nan, math.inf, -math.inf,
    1e100, 1e308, BEYOND_FLOAT, -BEYOND_FLOAT,
]
FLAG_VALUES = [
    "x", "true", "[]", "{}", "null", "-1", "0", "1e-300", "nan", "inf", "-inf",
    "1e100", "1e308", str(BEYOND_FLOAT), str(-BEYOND_FLOAT),
]
# count columns of each count table; a summary says "no counts" when all are 0
COUNT_COLUMNS = {"hv-table": (1,), "basis45-table": (2,), "delay-scan": (1, 2)}


def paths(node, prefix=()):
    """Every path into the tree: objects by key, lists by index."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


PATHS = list(paths(default_config()))


@st.composite
def mutated_configs(draw):
    tree = default_config()
    *parents, last = draw(st.sampled_from(PATHS))
    node = tree
    for key in parents:
        node = node[key]
    value = draw(st.sampled_from(VALUES))
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return tree


FLAGS = st.lists(
    st.tuples(st.sampled_from(["--time", "--seed", "--delay"]), st.sampled_from(FLAG_VALUES)),
    max_size=1,
).map(lambda pairs: [item for pair in pairs for item in pair])


def count_total(scenario: str, out: Path) -> int:
    rows = (out / f"{scenario}.csv").read_text().splitlines()[1:]
    return sum(int(row.split(",")[c]) for row in rows for c in COUNT_COLUMNS[scenario])


@settings(max_examples=60, deadline=None, database=None)
@given(scenario=st.sampled_from(SCENARIOS), user=mutated_configs(), flags=FLAGS)
@example("feasibility", {"visibility_zero_delay": BEYOND_FLOAT}, [])
@example("feasibility", {"bell_test_target_events": BEYOND_FLOAT}, [])
@example("delay-scan", {"rates": {"dark_count_rate": 1e100}}, [])
@example("hv-table", {"rates": {"coincidence_window_s": 1e200, "dark_count_rate": 1}}, [])
@example("delay-scan", {"coherence_time_fs": 1e-320}, [])
@example("delay-scan", {"rates": {"fourfold_rate_desired": 0, "background_fourfold_rate": 0}}, [])
@example("basis45-table", {"rates": {"fourfold_rate_desired": 0, "background_fourfold_rate": 0}}, [])
@example("hv-table", {}, ["--seed", "x"])
def test_every_input_ends_in_a_documented_exit(scenario, user, flags):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(user))
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(["--scenario", scenario, "--config", str(cfg), *flags,
                         "--out", str(out)])
        err = stderr.getvalue()
        written = sorted(out.iterdir()) if out.exists() else []

        assert code in (0, 1, 2, 3)
        if code != 0:
            assert err.count("\n") == 1 and err.endswith("\n"), err
        if code in (1, 2):
            assert not written
        if code == 0:
            assert err == ""
            assert not any("nan" in p.read_text() for p in written)
            if scenario in COUNT_COLUMNS and count_total(scenario, out) == 0:
                assert "no counts" in (out / f"{scenario}_summary.txt").read_text()
