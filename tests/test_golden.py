"""Golden output of every CLI subcommand: stdout, exit code and output-file bytes.

The cases are the README configs in both regimes, mostly with explicit
times; each protocol also has one resonant ``"times": "auto"`` case, and
``transfer-time`` also searches a small ``custom`` network.  The
expected output lives in ``golden/cli.json``.  After a change that is meant
to alter output, regenerate it with
``OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_golden.py`` and
justify every changed digit.  The bytes depend on the BLAS kernel family,
which ``conftest.py`` pins for the suite and for this script alike.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

import conftest  # noqa: F401  pins the BLAS kernel before numpy loads, also as a script
from cavity_route.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

RES = {"omega_c": 1.0, "delta": 0.0, "g": 65.0, "j": 1.0}
DISP = {"omega_c": 1.0, "delta": -1000.0, "g": 65.0, "j": 1.0}
BLOCKS = ("end", "mid", "upload", "hop")
TIMES = {
    "res": dict(zip(BLOCKS, (2.22314941406, 3.14140673828, 1.59477392578, 2.22301806641))),
    "disp": dict(zip(BLOCKS, (266.573545158, 376.991885906, 188.495939869, 266.570425424))),
}
HEX = {"vertices": ["a", "b"], "links": [["a", 1, "b", 1]], "uploads": ["a", "b"]}
# three vertices, a port-0 site without upload at b and five dangling planar ports
HEX3 = {
    "vertices": ["a", "b", "c"],
    "links": [["a", 1, "b", 1], ["b", 2, "c", 3]],
    "uploads": ["a", "c"],
}
# a three-site custom network: the search runs on its whole Hamiltonian
CUSTOM = {
    "sites": [{"id": i, "label": f"s{i + 1}"} for i in range(3)],
    "edges": [[0, 1, 1], [1, 2, -1]],
}
OUT = "{out}"  # replaced by a temporary file path


def _chain(n, params, times, **protocol):
    protocol = {"times": times, **protocol}
    return {"topology": "diamond_chain", "n": n, "params": params, "protocol": protocol}


def _switch(params, **protocol):
    return {"topology": "switch", "params": params, "protocol": protocol}


def _hex(params, **protocol):
    return {"topology": "hex_lattice", "descriptor": HEX, "params": params, "protocol": protocol}


def _custom(params):
    return {"topology": "custom", "network": {**CUSTOM, "params": params}}


def _cases():
    cases = {}
    for regime, params in (("res", RES), ("disp", DISP)):
        t = TIMES[regime]
        chain_times = [t["end"], t["mid"]]
        chain = {"topology": "diamond_chain", "n": 3, "params": params}
        cases[f"blocks-chain-{regime}"] = ("blocks", chain, ["--out", OUT])
        cases[f"blocks-switch-{regime}"] = ("blocks", {"topology": "switch", "params": params}, [])
        cases[f"blocks-hex-{regime}"] = ("blocks", _hex(params), ["--out", OUT])
        switch = {"topology": "switch", "params": params}
        cases[f"blocks-switch-out-{regime}"] = ("blocks", switch, ["--out", OUT])
        hex3 = {"topology": "hex_lattice", "descriptor": HEX3, "params": params}
        cases[f"blocks-hex3-{regime}"] = ("blocks", hex3, ["--out", OUT])
        cfg = {**_chain(3, params, chain_times), "output": {"path": OUT, "samples_per_window": 21}}
        cases[f"simulate-{regime}"] = ("simulate", cfg, [])
        for port in (1, 2, 3):
            cfg = _switch(params, port=port, times=t["upload"])
            cases[f"switch-p{port}-{regime}"] = ("switch", cfg, ["--out", OUT, "--samples", "17"])
        cfg = _switch(params, port=2, times=[t["upload"]])
        cases[f"switch-list-{regime}"] = ("switch", cfg, ["--samples", "5"])
        cfg = _hex(params, path=["a", "b"], times=[t["upload"], t["hop"]])
        output = {"path": OUT, "samples_per_window": 19}
        cases[f"route-{regime}"] = ("route", {**cfg, "output": output}, [])
        for compensate in (True, False):
            cfg = _chain(2, params, chain_times, compensate=compensate)
            cfg["output"] = {"samples_per_window": 7}
            cases[f"entangle-c{int(compensate)}-{regime}"] = ("entangle", cfg, ["--out", OUT])
        cfg = {"params": params, "samples": 21}
        cases[f"validate-analytic-{regime}"] = ("validate-analytic", cfg, [])
    for block in BLOCKS:
        cases[f"transfer-time-{block}-res"] = ("transfer-time", {"params": RES}, ["--block", block])
    cfg = {"params": DISP, "block": "upload"}
    cases["transfer-time-upload-disp"] = ("transfer-time", cfg, [])
    cfg = {"params": RES, "block": "hop", "window": [0.5, 4.0], "grid": 5001}
    cases["transfer-time-window-grid"] = ("transfer-time", cfg, [])
    ends = ["--source", "1", "--target", "5"]  # the first atom to the last
    cases["transfer-time-custom-res"] = ("transfer-time", _custom(RES), ends)
    flags = [*ends, "--grid", "300001"]
    cases["transfer-time-custom-disp-grid"] = ("transfer-time", _custom(DISP), flags)
    cfg = _custom({**RES, "omega_c": -0.0})
    cases["transfer-time-custom-negative-zero"] = ("transfer-time", cfg, ends)
    # networks whose runs hold many blocks: an 8-unit chain, and a route whose source block is
    # not the first row of the window
    t = TIMES["res"]
    cfg = _chain(8, RES, [t["end"], t["mid"]])
    cfg["output"] = {"path": OUT, "samples_per_window": 21}
    cases["simulate-n8-res"] = ("simulate", cfg, [])
    hex3 = {"topology": "hex_lattice", "descriptor": HEX3, "params": RES}
    protocol = {"path": ["c", "b", "a"], "times": [t["upload"], t["hop"]]}
    flags = ["--out", OUT, "--samples", "15"]
    cases["route-hex3-res"] = ("route", {**hex3, "protocol": protocol}, flags)
    # one auto-times case per protocol, resonant so the searches stay cheap
    cases["simulate-auto"] = ("simulate", _chain(3, RES, "auto"), ["--out", OUT, "--samples", "11"])
    cfg = _chain(2, RES, "auto", window=[0.0, 5.0], grid=8001)
    cases["simulate-auto-window"] = ("simulate", {**cfg, "output": {"samples_per_window": 3}}, [])
    flags = ["--out", OUT, "--samples", "9", "--tmax", "4"]
    cases["switch-auto"] = ("switch", _switch(RES, port=3, times="auto"), flags)
    cfg = _hex(RES, path=["b", "a"], times="auto", grid=12001)
    cases["route-auto"] = ("route", cfg, ["--out", OUT, "--samples", "13"])
    flags = ["--out", OUT, "--grid", "30001", "--samples", "9"]
    cases["entangle-auto"] = ("entangle", _chain(2, RES, "auto"), flags)
    return cases


CASES = _cases()


def _substitute(value, out):
    if isinstance(value, dict):
        return {k: _substitute(v, out) for k, v in value.items()}
    if isinstance(value, list):
        return [_substitute(v, out) for v in value]
    return out if value == OUT else value


def run_case(name, tmp_path):
    command, config, flags = CASES[name]
    out = tmp_path / f"{name}.out"
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(_substitute(config, str(out))))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", str(cfg), *_substitute(flags, str(out))])
    written = out.read_text() if out.exists() else None
    return {"code": code, "stdout": stdout.getvalue(), "file": written}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
