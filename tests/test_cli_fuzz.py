"""Property test: whatever the argv and config file, the CLI ends in exit 0, 1 or 2.

Drawn flags follow a valid run of the command and mostly take values close
to valid ones, so that many draws succeed. Each run is kept cheap by flags
placed after the drawn ones and the file (the last flag wins) and by drawing
no number above 30 in size: that bounds clone counts, grid values and the
oracle's R*t, whose cost grows linearly. The overflow and memory exits of
huge values have their own tests in ``test_cli.py``.
"""

import json
import os
import tempfile

import pytest

from infoclone.cli import main

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# A valid run of each command, for the drawn flags and file to change.
BASE = {
    "transform": ["--couplings=1,0.5", "--time=0.3"],
    "oracle": ["--couplings=1", "--time=0.3", "--alpha=0.5,0"],
    "estimate": [],
    "sweep": ["--grid-axis=n-copies", "--grid-values=2,3"],
}
CHEAP = {
    "transform": [],
    "oracle": ["--cutoff", "3"],
    "estimate": ["--trials", "3", "--n-copies", "2"],
    "sweep": ["--trials", "3", "--n-copies", "2"],
}
# Values each flag accepts, or is close to accepting.
PLAUSIBLE = {
    "--couplings": ["1", "0.5,2", "1e-200,1e-200", "0,0", ""],
    "--time": ["0", "0.3", "-2.5", "1e200"],
    "--alpha": ["0.5,0", "-0.3,0.2", "1,1,1"],
    "--beta": ["0,0", "5,0", "-1,2"],
    "--cutoff": ["0", "2", "3"],
    "--strategy": ["optimal", "offset", "near-optimal"],
    "--n-copies": ["1", "2", "3", "7"],
    "--epsilon": ["0.1", "0.5", "1"],
    "--trials": ["0", "2", "5"],
    "--seed": ["0", "7", "18446744073709551615", "-1"],
    "--format": ["json", "csv", "yaml"],
    "--grid-axis": ["n-copies", "epsilon", "sin_rt"],
    "--grid-values": ["2,3", "0.1,0.2", "-1,-0.5", "0.7071067811865476", "inf", "nan"],
}
FLAGS = (*PLAUSIBLE, "--randomize", "--bogus")
COMMON = ("--seed", "--format", "--randomize")
OWN_FLAGS = {
    "transform": ("--couplings", "--time", "--alpha", "--beta", *COMMON),
    "oracle": ("--couplings", "--time", "--alpha", "--beta", "--cutoff", *COMMON),
    "estimate": ("--strategy", "--n-copies", "--epsilon", "--alpha", "--beta", "--trials", *COMMON),
    "sweep": ("--strategy", "--epsilon", "--alpha", "--beta", "--grid-axis", "--grid-values", *COMMON),
}
KEYS = (*(flag[2:].replace("-", "_") for flag in FLAGS), "command", "config", "out", "grid")

numbers = st.one_of(
    st.integers(-3, 30),
    st.floats(-30, 30),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
# No digits in free text, so it cannot spell a huge clone count.
texts = st.text(alphabet="abxyz,.-_ ", max_size=6)
values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, texts),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["axis", "values", "bogus"]), inner, max_size=3),
    max_leaves=6,
)


def as_json(text: str):
    """"0.3" -> 0.3, "0.5,2" -> [0.5, 2.0], "csv" -> "csv"."""
    try:
        return json.loads(text)
    except ValueError:
        try:
            return [float(part) for part in text.split(",")]
        except ValueError:
            return text


def flag(name: str):
    plausible = st.sampled_from(PLAUSIBLE.get(name, [""]))
    text = st.one_of(plausible, plausible, plausible, texts, numbers.map(repr))
    return st.one_of(*[text.map(lambda value: f"{name}={value}")] * 4, st.just(name))


def setting(key: str):
    if key == "grid":
        axis = st.sampled_from(PLAUSIBLE["--grid-axis"])
        grid_values = st.sampled_from(PLAUSIBLE["--grid-values"]).map(as_json)
        value = st.fixed_dictionaries({"axis": axis, "values": grid_values}) | values
    else:
        plausible = st.sampled_from(PLAUSIBLE.get("--" + key.replace("_", "-"), [""]))
        value = st.one_of(plausible.map(as_json), plausible.map(as_json), plausible, values)
    return st.tuples(st.just(key), value)


def command_run(command: str):
    """(command, flags, config), drawing the command's own flags and keys 3 times in 4."""
    own = OWN_FLAGS[command]
    own_keys = [name[2:].replace("-", "_") for name in own]
    names = st.one_of(*[st.sampled_from(own)] * 3, st.sampled_from(FLAGS))
    keys = st.one_of(*[st.sampled_from(own_keys)] * 3, st.sampled_from(KEYS))
    if command == "sweep":
        keys = keys | st.just("grid")
    flags = st.lists(names.flatmap(flag), max_size=3)
    config = st.none() | st.lists(keys.flatmap(setting), max_size=3).map(dict)
    return st.tuples(st.just(command), flags, config)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(BASE)).flatmap(command_run))
def test_every_run_exits_0_1_or_2(run):
    command, flags, config = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *BASE[command], *flags]
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        argv += [*CHEAP[command], "--out", os.path.join(tmp, "report")]
        assert main(argv) in (0, 1, 2)
