"""Fuzz the CLI over config JSON: every input ends in exit 0, 1 or 2.

Each example starts from a valid config of one subcommand (random topology,
regime, explicit or ``"auto"`` times) and overwrites up to three fields with
malformed, mistyped, boolean, huge or NaN-producing values.  Searches only
ever see tiny grids, so each example runs in milliseconds.  The contract:
the exit code is 0, 1 or 2, a non-zero exit prints exactly one stderr line,
and no exception escapes ``main``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_route.cli import main

RES = {"omega_c": 1.0, "delta": 0.0, "g": 65.0, "j": 1.0}
DISP = {"omega_c": 1.0, "delta": -1000.0, "g": 65.0, "j": 1.0}
TIMES = {
    "res": {"chain": [2.2231, 3.1414], "switch": 1.5948, "route": [1.5948, 2.2230]},
    "disp": {"chain": [266.57, 376.99], "switch": 188.50, "route": [188.50, 266.57]},
}
HEX = {"vertices": ["a", "b"], "links": [["a", 1, "b", 1]], "uploads": ["a", "b"]}
NETWORK = {
    "sites": [{"id": 0, "label": "l"}, {"id": 1, "label": "r"}],
    "edges": [[0, 1, 1]],
    "params": RES,
}

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "id", "x"]), st.integers(0, 2), max_size=1),
)
numbers = st.one_of(
    st.integers(-3, 5),
    st.sampled_from([0.0, -1.0, 0.5, 1e-300, 1e300, 1e308, -1e308, 10**400, 2**31]),
    st.floats(allow_nan=True, allow_infinity=True),
)
bad_value = st.one_of(numbers, junk)

#: fields a mutation may overwrite; a path through a non-container replaces it
FIELDS = [
    ("topology",), ("n",), ("grid",), ("window",), ("block",), ("samples",), ("blocks",),
    ("params",), ("params", "g"), ("params", "j"), ("params", "delta"), ("params", "omega_c"),
    ("protocol",), ("protocol", "times"), ("protocol", "times", 0), ("protocol", "port"),
    ("protocol", "path"), ("protocol", "path", 1), ("protocol", "compensate"),
    ("protocol", "window"), ("protocol", "window", 1), ("protocol", "grid"),
    ("output",), ("output", "samples_per_window"), ("output", "path"),
    ("descriptor",), ("descriptor", "vertices"), ("descriptor", "links"),
    ("descriptor", "links", 0), ("descriptor", "uploads"),
    ("network",), ("network", "sites"), ("network", "sites", 0), ("network", "edges", 0),
    ("network", "params"),
]

FLAGS = [
    ["--strict"],
    ["--tmax", "1e308"],
    ["--tmax", "nan"],
    ["--tmax", "-1"],
    ["--tmax", "3"],
    ["--samples", "2000000000"],
    ["--samples", "3"],
    ["--grid", "2000000000"],
    ["--grid", "7"],
]
#: flags only transfer-time has
SEARCH_FLAGS = [
    [],
    ["--source", "1", "--target", "3"],
    ["--source", "-1", "--target", "99"],
    ["--block", "mid"],
]
COMMANDS = [
    "blocks", "transfer-time", "validate-analytic", "simulate", "switch", "route", "entangle"
]


@st.composite
def configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    regime = draw(st.sampled_from(["res", "disp"]))
    # "auto" only in the resonant regime, where a dropped grid still scans just 20001 points
    auto = regime == "res" and draw(st.booleans())
    times = TIMES[regime]
    cfg = {"params": dict(RES if regime == "res" else DISP), "grid": draw(st.integers(3, 40))}
    if command in ("simulate", "entangle"):
        cfg.update(topology="diamond_chain", n=draw(st.integers(1, 3)))
        cfg["protocol"] = {"times": "auto" if auto else list(times["chain"]), "compensate": True}
    elif command == "switch":
        cfg.update(topology="switch")
        port = draw(st.integers(1, 3))
        cfg["protocol"] = {"times": "auto" if auto else times["switch"], "port": port}
    elif command == "route":
        cfg.update(topology="hex_lattice", descriptor=json.loads(json.dumps(HEX)))
        cfg["protocol"] = {"times": "auto" if auto else list(times["route"]), "path": ["a", "b"]}
    elif command == "blocks":
        cfg.update(topology=draw(st.sampled_from(["diamond_chain", "switch", "hex_lattice"])), n=2)
        cfg["descriptor"] = json.loads(json.dumps(HEX))
    elif command == "transfer-time":
        cfg["block"] = draw(st.sampled_from(["end", "mid", "upload", "hop"]))
        if draw(st.booleans()):
            cfg.update(topology="custom", network=json.loads(json.dumps(NETWORK)))
    else:
        cfg["samples"] = draw(st.integers(2, 9))
    cfg["output"] = {"samples_per_window": draw(st.integers(2, 5)), "path": "trace.csv"}
    for path in draw(st.lists(st.sampled_from(FIELDS), max_size=3)):
        _overwrite(cfg, path, draw(bad_value))
    flags = draw(st.lists(st.sampled_from(FLAGS), max_size=3))
    if command == "transfer-time":
        flags.append(draw(st.sampled_from(SEARCH_FLAGS)))
    return command, cfg, [flag for group in flags for flag in group]


def _overwrite(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        child = node[key] if _has(node, key) else None
        if not isinstance(child, (dict, list)):
            child = {}
            _set(node, key, child)
        node = child
    _set(node, path[-1], value)


def _has(node, key):
    return key in node if isinstance(node, dict) else isinstance(key, int) and key < len(node)


def _set(node, key, value):
    if isinstance(node, dict):
        node[key] = value
    elif isinstance(key, int) and key < len(node):
        node[key] = value


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(case=configs())
def test_every_config_exits_cleanly(case):
    command, cfg, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        output = cfg.get("output")
        if isinstance(output, dict) and isinstance(output.get("path"), str):
            # any string is a valid path; keep the trace out of the working directory
            output["path"] = str(Path(tmp) / "trace.csv")
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), *flags])
    assert code in (0, 1, 2)
    if code != 0:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    assert "Traceback" not in err.getvalue()
