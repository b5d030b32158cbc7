"""Every CLI input ends in a result or a documented exit code, never a
traceback.

Each example replaces or deletes one path of the default config tree and may
replace one of --time, --seed and --delay. The replacements are values of
another type or numbers out of range. The run must exit 0, 1, 2 or 3. A
nonzero exit prints exactly one stderr line, and exits 1 and 2 write no output
file. Exit 0 prints nothing on stderr, writes no NaN, and names in its summary
a count table that holds no counts.

A second property draws the config file's bytes (invalid UTF-8, a BOM, deep
nesting, duplicate keys, an empty file) and the kind of path given to --config
and --out (missing, a file, a directory, a path below a file). An unreadable
config exits 2 before --out is made; an --out that cannot be made exits 1.

A third test runs every scenario at the default config with a --time near its
bound and near numpy's Poisson limit: the longest allowed --time draws, and a
longer one is a usage error (exit 1), never a config error.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourphoton.cli import SCENARIOS, default_config, main

BEYOND_FLOAT = 10**400
# more digits than int() and json read by default; json.dumps cannot write it
BEYOND_STR_DIGITS = "1" * 5_000
DELETE = object()
VALUES = [
    DELETE, "x", True, False, [], [1.0], {}, {"x": 1}, None,
    -1, -1.5, 0, 0.0, 1e-300, math.nan, math.inf, -math.inf,
    1e100, 1e308, BEYOND_FLOAT, -BEYOND_FLOAT,
]
# --time values around its bound, 1e18 s, and numpy's Poisson limit, about
# 9.2e18 expected counts, with the exit each gives at the default config
EXTREME_TIMES = {"1e18": 0, "1.0000001e18": 1, "9.3e18": 1, "1e21": 1, "1e300": 1}
FLAG_VALUES = [
    "x", "true", "[]", "{}", "null", "-1", "0", "1e-300", "nan", "inf", "-inf",
    "1e100", "1e308", str(BEYOND_FLOAT), str(-BEYOND_FLOAT), *EXTREME_TIMES,
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
@example("delay-scan", {"rates": {"fourfold_rate_desired": 1e308}}, [])
@example("hv-table", {"rates": {"background_fourfold_rate": 1e308}}, [])
@example("delay-scan", {"coherence_time_fs": 1e-320}, [])
@example("delay-scan", {"rates": {"fourfold_rate_desired": 0, "background_fourfold_rate": 0}}, [])
@example("basis45-table", {"rates": {"fourfold_rate_desired": 0, "background_fourfold_rate": 0}}, [])
@example("hv-table", {}, ["--seed", "x"])
@example("hv-table", {}, ["--seed", BEYOND_STR_DIGITS])
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


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("time", EXTREME_TIMES)
def test_extreme_time_is_no_config_error(scenario, time, tmp_path):
    # no config is given: a --time too long to draw is a usage error (exit 1),
    # and the longest allowed one still draws
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--scenario", scenario, "--time", time, "--out", str(tmp_path / "out")])
    err = stderr.getvalue()
    assert code == EXTREME_TIMES[time], err
    if code:
        assert err.count("\n") == 1 and "--time" in err
        assert not (tmp_path / "out").exists()


# The bytes of a config file, with the exit they must give: 0 for a config
# that holds valid values, 2 for anything else. Duplicate keys are valid
# JSON, and the last one decides.
VALID_JSON = b'{"rates": {}, "visibility_zero_delay": 0.79}'
CONFIG_BYTES = st.one_of(
    st.just((VALID_JSON, 0)),
    st.tuples(st.integers(0, len(VALID_JSON)), st.sampled_from([b"\xff", b"\x80", b"\xc3("]))
    .map(lambda cut: (VALID_JSON[:cut[0]] + cut[1] + VALID_JSON[cut[0]:], 2)),
    st.just((b"\xef\xbb\xbf" + VALID_JSON, 2)),
    st.tuples(st.sampled_from([1, 50, 5_000, 200_000]), st.booleans())
    .map(lambda deep: (b"[" * deep[0] + (b"]" * deep[0] if deep[1] else b""), 2)),
    st.tuples(st.sampled_from([0.5, 2.0]), st.sampled_from([0.5, 2.0])).map(
        lambda vs: (b'{"visibility_zero_delay": %r, "visibility_zero_delay": %r}' % vs,
                    0 if vs[1] <= 1 else 2)),
    st.sampled_from([(b"", 2), (b" \n", 2)]),
)
PATH_KINDS = ("missing", "file", "directory", "below a file")


def make_path(tmp: Path, name: str, kind: str, content: bytes = b"") -> Path:
    """A path of the given kind under `tmp`; a file holds `content`."""
    path = tmp / name
    if kind == "directory":
        path.mkdir()
    elif kind == "file":
        path.write_bytes(content)
    elif kind == "below a file":
        path.write_bytes(b"")
        path = path / "below"
    return path


@settings(max_examples=60, deadline=None, database=None)
@given(scenario=st.sampled_from(SCENARIOS), config=CONFIG_BYTES,
       config_kind=st.sampled_from(PATH_KINDS), out_kind=st.sampled_from(PATH_KINDS))
@example("feasibility", (VALID_JSON, 0), "file", "file")
@example("feasibility", (VALID_JSON, 0), "file", "below a file")
@example("feasibility", (VALID_JSON, 0), "directory", "missing")
@example("feasibility", (b"\xff" + VALID_JSON, 2), "file", "missing")
@example("feasibility", (b"[" * 200_000, 2), "file", "missing")
@example("feasibility", (b'{"visibility_zero_delay": %s}' % BEYOND_STR_DIGITS.encode(), 2),
         "file", "missing")
def test_unreadable_config_or_unwritable_out_exits_cleanly(
    scenario, config, config_kind, out_kind
):
    content, config_code = config
    with tempfile.TemporaryDirectory() as tmp:
        cfg = make_path(Path(tmp), "cfg.json", config_kind, content)
        out = make_path(Path(tmp), "out", out_kind, b"kept")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--scenario", scenario, "--config", str(cfg), "--out", str(out)])
        err = stderr.getvalue()

        if config_kind != "file" or config_code:
            expected = 2  # config errors come before --out is made
        elif out_kind in ("file", "below a file"):
            expected = 1
        else:
            expected = 0
        assert code == expected, err
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith("config error" if code == 2 else "error: cannot write")
        if out_kind == "missing":
            assert out.exists() == (code == 0)
        if out_kind in ("missing", "directory") and out.exists():
            assert bool(list(out.iterdir())) == (code == 0)
        if out_kind == "file":
            assert out.read_bytes() == b"kept"
