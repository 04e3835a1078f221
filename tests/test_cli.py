import json
import subprocess
import sys

import pytest

from conftest import brick_wall, dense_hamiltonian
from cavity_route.cli import main

PARAMS = {"omega_c": 1.0, "delta": 0.0, "g": 65.0, "j": 1.0}
DISP_PARAMS = {"omega_c": 1.0, "delta": -1000.0, "g": 65.0, "j": 1.0}

# frozen resonant transfer times; the auto search re-derives these, explicit
# configs below use them to keep the CLI tests quick
T1, T2 = 2.223149414, 3.141406738
T_UPLOAD, T_HOP = 1.594773926, 2.223018066
# dispersive counterparts
D1, D2 = 266.573545, 376.991886


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBlocks:
    def test_chain_n2_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", {"topology": "diamond_chain", "n": 2, "params": PARAMS}
        )
        code, out, _ = run_main(capsys, ["blocks", "--config", cfg])
        assert code == 0
        assert out.strip() == "blocks: 4,6,4 residual: <=1e-12"

    def test_switch_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"topology": "switch", "params": PARAMS})
        code, out, _ = run_main(capsys, ["blocks", "--config", cfg])
        assert code == 0
        assert out.startswith("blocks: 4,4,4,4 residual:")

    def test_hex_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "topology": "hex_lattice",
                "descriptor": {
                    "vertices": ["a", "b"],
                    "links": [["a", 1, "b", 1]],
                    "uploads": ["a", "b"],
                },
                "params": PARAMS,
            },
        )
        code, out, _ = run_main(capsys, ["blocks", "--config", cfg, "--strict"])
        assert code == 0
        assert "6" in out.split("residual:")[0]

    def test_out_writes_block_matrices(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", {"topology": "diamond_chain", "n": 1, "params": PARAMS}
        )
        out_file = tmp_path / "blocks.csv"
        code, _, _ = run_main(capsys, ["blocks", "--config", cfg, "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert text.count("# block") == 2
        assert "dim=4" in text

    def test_strict_fails_on_a_broken_sign(self, tmp_path, capsys, monkeypatch):
        from cavity_route import cli, network

        def broken_chain(n, params):
            # unit 1's -j edge (ids 2 -> 3) flipped to +j; the residual is sqrt(2) j
            spec = network.build_diamond_chain(n, params)
            edges = [(k, l, 1) if (k, l) == (2, 3) else (k, l, s) for k, l, s in spec.edges]
            return network.NetworkSpec(spec.sites, edges, spec.params)

        monkeypatch.setattr(cli, "build_diamond_chain", broken_chain)
        cfg = write_config(
            tmp_path, "c.json", {"topology": "diamond_chain", "n": 3, "params": PARAMS}
        )
        code, out, err = run_main(capsys, ["blocks", "--config", cfg, "--strict"])
        assert code == 1
        assert out == "blocks: 4,6,6,4 residual: 1.414e+00\n"
        # the bound is 1e-12 max(1, max |H|), here g = 65
        assert err == "strict: residual 1.414e+00 above 6.500e-11\n"

    def test_strict_residual_is_relative_to_the_largest_entry(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        from cavity_route import OrthogonalTransform, cli

        original = cli.chain_collective_basis

        def rounding_basis(n):
            # each +/- control pair takes cos(pi/4) and sin(pi/4), which differ by one ulp, so
            # c+ and c- meet with omega_c (cos^2 - sin^2), about 1e-10 at omega_c = 1e6
            basis = original(n)
            rows, cols, values = basis.entries
            paired = np.abs(values) < 1.0
            first = np.r_[True, rows[1:] != rows[:-1]]  # the first entry of its row
            tilted = np.where(first, np.cos(np.pi / 4), np.sign(values) * np.sin(np.pi / 4))
            return OrthogonalTransform(
                (rows, cols, np.where(paired, tilted, values)), basis.labels, basis.groups
            )

        monkeypatch.setattr(cli, "chain_collective_basis", rounding_basis)
        # |H| reaches 1e6: a residual of 1e-10 is rounding, 1e-16 of the largest entry
        params = {"omega_c": 1e6, "delta": -1e5, "g": 65.0, "j": 1.0}
        chain = {"topology": "diamond_chain", "n": 30, "params": params}
        cfg = write_config(tmp_path, "c.json", chain)
        code, out, err = run_main(capsys, ["blocks", "--config", cfg, "--strict"])
        assert (code, err) == (0, "")
        residual = float(out.split("residual: ")[1])
        assert 1e-12 < residual <= 1e-12 * 1e6

    def test_custom_topology_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"topology": "custom", "params": PARAMS})
        code, _, err = run_main(capsys, ["blocks", "--config", cfg])
        assert code == 2
        assert "config error" in err


class TestTransferTime:
    def test_resonant_end_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"block": "end", "params": PARAMS})
        code, out, _ = run_main(capsys, ["transfer-time", "--config", cfg])
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert abs(float(fields["t_star"]) - 2.2231) / 2.2231 <= 0.02
        assert float(fields["fidelity"]) >= 0.999

    def test_one_eigendecomposition_per_search(self, tmp_path, capsys, monkeypatch):
        from cavity_route import cli, evolution

        calls = []

        def counted(h):
            calls.append(h)
            return original(h)

        original = evolution.eigendecompose
        # every module-level name bound to it, as the auto grid and the search look it up there
        for module in (cli, evolution):
            monkeypatch.setattr(module, "eigendecompose", counted, raising=False)
        cfg = write_config(tmp_path, "c.json", {"block": "mid", "params": PARAMS})
        code, _, _ = run_main(capsys, ["transfer-time", "--config", cfg])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "key, value, flags",
        [
            ("grid", 2, []),
            ("grid", True, []),
            ("window", [1.0, 0.0], []),
            ("window", 5, []),
            ("window", [0.0, 1.0, 2.0], []),
            ("window", None, ["--tmax", "-1"]),
            ("window", None, ["--grid", "2"]),
            ("window", None, ["--target", "99"]),
            ("window", None, ["--source", "-1"]),
        ],
    )
    def test_custom_network_refused_before_decomposition(
        self, tmp_path, capsys, monkeypatch, key, value, flags
    ):
        import numpy as np

        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or original(m))
        network = {"sites": [{"id": 0, "label": "l"}, {"id": 1, "label": "r"}]}
        cfg = {"topology": "custom", "network": {**network, "edges": [[0, 1, 1]], "params": PARAMS}}
        cfg = write_config(tmp_path, "c.json", {**cfg, key: value})
        argv = ["transfer-time", "--config", cfg, "--source", "1", "--target", "3", *flags]
        code, _, err = run_main(capsys, argv)
        assert code == 2 and err.startswith("config error: ")
        assert calls == []

    @pytest.mark.parametrize(
        "block, t_star",
        [
            ("end", "1055.18623079"),
            ("mid", "1492.25531806"),
            ("upload", "746.12765825"),
            ("hop", "1055.18622969"),
        ],
    )
    def test_window_from_the_envelope_at_larger_detuning(self, tmp_path, capsys, block, t_star):
        # the former (0, 600) window cut these transfers: t* about 599.7, F 0.12-0.91, exit 0
        cfg = write_config(tmp_path, "c.json", {"params": {**DISP_PARAMS, "delta": -2000.0}})
        code, out, _ = run_main(capsys, ["transfer-time", "--config", cfg, "--block", block])
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["t_star"] == t_star
        assert float(fields["fidelity"]) > 0.9999

    def test_block_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"block": "end", "params": PARAMS})
        code, out, _ = run_main(
            capsys, ["transfer-time", "--config", cfg, "--block", "upload"]
        )
        assert code == 0
        t_star = float(out.split()[0].split("=")[1])
        assert abs(t_star - 1.5948) / 1.5948 <= 0.03

    def test_custom_topology_full_network(self, tmp_path, capsys):
        from cavity_route import NetworkSpec, find_transfer_time

        # two coupled cells: atom-to-atom transfer across one hop
        network = {
            "sites": [
                {"id": 0, "label": "l", "role": "plain"},
                {"id": 1, "label": "r", "role": "plain"},
            ],
            "edges": [[0, 1, 1]],
            "params": PARAMS,
        }
        cfg = write_config(tmp_path, "c.json", {"topology": "custom", "network": network})
        code, out, _ = run_main(
            capsys,
            ["transfer-time", "--config", cfg, "--source", "1", "--target", "3"],
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        h = dense_hamiltonian(NetworkSpec.from_json_dict(network))
        expected = find_transfer_time(h, 1, 3)
        assert float(fields["t_star"]) == pytest.approx(expected.t_star, abs=1e-9)
        assert float(fields["fidelity"]) == pytest.approx(expected.fidelity, abs=1e-12)

    def test_custom_network_over_the_budget(self, tmp_path, capsys, monkeypatch):
        # 2049 sites: one block of 4098 x 4098 modes is over ARRAY_BUDGET (2**24 = 4096**2)
        def eigh(*_):
            raise AssertionError("eigendecomposition before the budget check")

        monkeypatch.setattr("numpy.linalg.eigh", eigh)
        sites = [{"id": i, "label": str(i)} for i in range(2049)]
        network = {"sites": sites, "edges": [[0, 1, 1]], "params": PARAMS}
        cfg = write_config(tmp_path, "c.json", {"topology": "custom", "network": network})
        argv = ["transfer-time", "--config", cfg, "--source", "1", "--target", "3"]
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        message = "a 4098-mode block decomposition exceeds the budget of 16777216"
        assert err == f"config error: {message}\n"

    def test_custom_topology_needs_indices(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", {"topology": "custom", "network": {"bad": 1}}
        )
        code, _, err = run_main(capsys, ["transfer-time", "--config", cfg])
        assert code == 2


class TestValidateAnalytic:
    def test_all_blocks_both_regimes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"params": PARAMS, "samples": 21})
        code, out, _ = run_main(capsys, ["validate-analytic", "--config", cfg, "--strict"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # 4 blocks x 2 regimes + worst
        assert lines[-1].startswith("worst=")
        assert float(lines[-1].split("=")[1]) <= 1e-9


class TestSimulate:
    def _config(self, tmp_path, out_name="trace.csv", **overrides):
        data = {
            "topology": "diamond_chain",
            "n": 2,
            "params": PARAMS,
            "protocol": {"times": [T1, T2]},
            "output": {"path": str(tmp_path / out_name), "samples_per_window": 41},
        }
        data.update(overrides)
        return write_config(tmp_path, "sim.json", data), tmp_path / out_name

    def test_trace_file_layout(self, tmp_path, capsys):
        cfg, trace_path = self._config(tmp_path)
        code, out, _ = run_main(capsys, ["simulate", "--config", cfg, "--strict"])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "t,F,atom[1],atom[7],norm"
        assert lines[-1].startswith("# t_star=")
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == 3 * 41 - 2
        times = [float(r[0]) for r in rows]
        assert times == sorted(times)
        # unitarity: the norm column is printed with 12 decimal places
        assert {r[-1] for r in rows} == {"1.000000000000"}

    def test_footer_reports_fidelity(self, tmp_path, capsys):
        cfg, trace_path = self._config(tmp_path)
        run_main(capsys, ["simulate", "--config", cfg])
        footer = trace_path.read_text().splitlines()[-1]
        fields = dict(kv.split("=") for kv in footer.lstrip("# ").split())
        assert float(fields["fidelity"]) >= 0.999
        assert float(fields["t_star"]) == pytest.approx(2 * T1 + T2)

    def test_deterministic_output(self, tmp_path, capsys):
        cfg, trace_path = self._config(tmp_path)
        run_main(capsys, ["simulate", "--config", cfg])
        first = trace_path.read_bytes()
        run_main(capsys, ["simulate", "--config", cfg])
        assert trace_path.read_bytes() == first

    def test_auto_times_echoed(self, tmp_path, capsys):
        cfg, trace_path = self._config(tmp_path, **{"protocol": {"times": "auto"}})
        code, out, _ = run_main(capsys, ["simulate", "--config", cfg])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines[-2].startswith("# times t1=")
        t1 = float(lines[-2].split("t1=")[1].split()[0])
        assert t1 == pytest.approx(T1, abs=1e-6)

    def test_auto_times_at_larger_detuning(self, tmp_path, capsys):
        # both times once sat on the edge of (0, 600), and the fidelity read 0.0055 with exit 0
        params = {**DISP_PARAMS, "delta": -2000.0}
        cfg, _ = self._config(tmp_path, n=3, params=params, protocol={"times": "auto"})
        code, out, _ = run_main(capsys, ["simulate", "--config", cfg, "--samples", "2"])
        assert code == 0
        report, resolved = out.splitlines()
        assert resolved == "times t1=1055.18623079 t2=1492.25531806"
        assert float(report.split()[1].split("=")[1]) > 0.999

    def test_dispersive_trace_photon_bound(self, tmp_path, capsys):
        data = {
            "topology": "diamond_chain",
            "n": 2,
            "params": DISP_PARAMS,
            "protocol": {"times": [D1, D2]},
            "output": {"path": str(tmp_path / "d.csv"), "samples_per_window": 201},
        }
        cfg = write_config(tmp_path, "disp.json", data)
        code, _, _ = run_main(capsys, ["simulate", "--config", cfg, "--strict"])
        assert code == 0
        rows = (tmp_path / "d.csv").read_text().splitlines()[1:-1]
        photon = [float(r.split(",")[1]) for r in rows]
        assert max(photon) <= 0.05

    def test_strict_fails_on_bad_times(self, tmp_path, capsys):
        cfg, _ = self._config(tmp_path, **{"protocol": {"times": [0.01, 0.01]}})
        code, _, err = run_main(capsys, ["simulate", "--config", cfg, "--strict"])
        assert code == 1
        assert "strict" in err

    def test_wrong_topology(self, tmp_path, capsys):
        cfg, _ = self._config(tmp_path, topology="switch")
        code, _, _ = run_main(capsys, ["simulate", "--config", cfg])
        assert code == 2

    def test_bad_times_shape(self, tmp_path, capsys):
        cfg, _ = self._config(tmp_path, **{"protocol": {"times": [1.0]}})
        code, _, _ = run_main(capsys, ["simulate", "--config", cfg])
        assert code == 2


class TestSwitchCommand:
    def test_steering_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sw.json",
            {
                "topology": "switch",
                "params": PARAMS,
                "protocol": {"port": 2, "times": T_UPLOAD},
                "output": {"samples_per_window": 21},
            },
        )
        code, out, _ = run_main(capsys, ["switch", "--config", cfg])
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["leakage"]) <= 1e-6
        assert float(fields["fidelity"]) >= 0.99

    def test_trace_tracks_all_ports(self, tmp_path, capsys):
        trace_path = tmp_path / "sw.csv"
        cfg = write_config(
            tmp_path,
            "sw.json",
            {
                "topology": "switch",
                "params": PARAMS,
                "protocol": {"port": 1, "times": T_UPLOAD},
                "output": {"path": str(trace_path), "samples_per_window": 11},
            },
        )
        run_main(capsys, ["switch", "--config", cfg])
        header = trace_path.read_text().splitlines()[0]
        assert header == "t,F,atom[nu0],atom[nu1],atom[nu2],atom[nu3],norm"

    def test_strict_passes_at_ceiling(self, tmp_path, capsys):
        # full upload-flip-deliver fidelity tops out near 0.9989; strict must
        # accept that physical ceiling while still policing leakage
        cfg = write_config(
            tmp_path,
            "sw.json",
            {
                "topology": "switch",
                "params": PARAMS,
                "protocol": {"port": 3, "times": T_UPLOAD},
                "output": {"samples_per_window": 5},
            },
        )
        code, _, _ = run_main(capsys, ["switch", "--config", cfg, "--strict"])
        assert code == 0

    def test_bad_port(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sw.json",
            {"topology": "switch", "params": PARAMS, "protocol": {"port": 0}},
        )
        code, _, err = run_main(capsys, ["switch", "--config", cfg])
        assert code == 2
        assert "port" in err


class TestRouteCommand:
    def test_two_vertex_route(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "hex.json",
            {
                "topology": "hex_lattice",
                "descriptor": {
                    "vertices": ["a", "b"],
                    "links": [["a", 1, "b", 1]],
                    "uploads": ["a", "b"],
                },
                "params": PARAMS,
                "protocol": {"path": ["a", "b"]},
                "output": {"samples_per_window": 11},
            },
        )
        code, out, _ = run_main(capsys, ["route", "--config", cfg, "--strict"])
        assert code == 0
        assert float(out.split()[1].split("=")[1]) >= 0.99

    def test_missing_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "hex.json",
            {
                "topology": "hex_lattice",
                "descriptor": {"vertices": ["a"], "links": [], "uploads": ["a"]},
                "params": PARAMS,
                "protocol": {},
            },
        )
        code, _, _ = run_main(capsys, ["route", "--config", cfg])
        assert code == 2


class TestEntangleCommand:
    def test_bell_fidelity_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "ent.json",
            {
                "topology": "diamond_chain",
                "n": 2,
                "params": PARAMS,
                "protocol": {"times": [T1, T2], "compensate": True},
                "output": {"samples_per_window": 5},
            },
        )
        code, out, _ = run_main(capsys, ["entangle", "--config", cfg, "--strict"])
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["bell_fidelity"]) >= 0.99

    def test_compensate_must_be_boolean(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "ent.json",
            {
                "topology": "diamond_chain",
                "n": 2,
                "params": PARAMS,
                "protocol": {"times": [T1, T2], "compensate": "yes"},
            },
        )
        code, _, _ = run_main(capsys, ["entangle", "--config", cfg])
        assert code == 2


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        code, _, err = run_main(capsys, ["blocks", "--config", "/no/such/file.json"])
        assert code == 2
        assert "config error" in err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_main(capsys, ["blocks", "--config", str(bad)])
        assert code == 2

    def test_unknown_params_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"topology": "diamond_chain", "n": 1, "params": {"omega": 1.0}},
        )
        code, _, _ = run_main(capsys, ["blocks", "--config", cfg])
        assert code == 2

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cavity_route", "bogus", "--config", "x.json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_console_script_entry_point(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"topology": "diamond_chain", "n": 1, "params": PARAMS}))
        proc = subprocess.run(
            [sys.executable, "-m", "cavity_route", "blocks", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("blocks: 4,4")


CHAIN = {"topology": "diamond_chain", "n": 2, "params": PARAMS, "output": {"samples_per_window": 5}}
SWITCH = {"topology": "switch", "params": PARAMS, "protocol": {"port": 2}}
HEX = {"vertices": ["a", "b"], "links": [["a", 1, "b", 1]], "uploads": ["a", "b"]}
HEX_ROUTE = {
    "topology": "hex_lattice",
    "descriptor": HEX,
    "params": PARAMS,
    "protocol": {"path": ["a", "b"]},
}
CUSTOM_FLOAT_EDGE = {
    "topology": "custom",
    "network": {
        "sites": [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}],
        "edges": [[0.7, 1.2, 1.9]],
        "params": PARAMS,
    },
}

# site labels name CSV columns and lattice ports: they must be strings
CUSTOM_BAD_LABELS = {
    "topology": "custom",
    "network": {
        "sites": [{"id": 0, "label": 5}, {"id": 1, "label": [1]}],
        "edges": [[0, 1, 1]],
        "params": PARAMS,
    },
}


def _with(base, **changes):
    cfg = json.loads(json.dumps(base))
    for key, value in changes.items():
        section, _, field = key.partition("__")
        if field:
            cfg.setdefault(section, {})[field] = value
        else:
            cfg[section] = value
    return cfg


ROUTE = _with(HEX_ROUTE, protocol__times=[T_UPLOAD, T_HOP])
# a vertex name becomes part of site labels, which name trace CSV columns
COMMA_HEX = {"vertices": ["a,x", "b"], "links": [["a,x", 1, "b", 1]], "uploads": ["a,x", "b"]}


def run_failing(tmp_path, capsys, command, cfg, *flags):
    """Run one config that must fail; returns (code, the single stderr line)."""
    out_file = tmp_path / "trace.csv"
    cfg = _with(cfg)
    if isinstance(cfg.get("output"), dict):
        cfg["output"].setdefault("path", str(out_file))
    path = write_config(tmp_path, "c.json", cfg)
    code, out, err = run_main(capsys, [command, "--config", path, *flags])
    assert out == ""
    assert not out_file.exists()
    assert len(err.splitlines()) == 1, err
    return code, err


class TestNonFiniteResults:
    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("simulate", _with(CHAIN, protocol__times=[1e308, 1e308])),
            ("entangle", _with(CHAIN, protocol__times=[1e308, 1e308])),
            ("switch", _with(SWITCH, protocol__times=[1e308])),
            ("route", _with(HEX_ROUTE, protocol__times=[1e308, 1e308])),
        ],
    )
    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_protocol_times_overflow(self, tmp_path, capsys, command, cfg, strict):
        code, err = run_failing(tmp_path, capsys, command, cfg, *strict)
        assert code == 1
        assert err.startswith("numerical error: non-finite")

    def test_validate_analytic_huge_window(self, tmp_path, capsys):
        # max(0.0, nan) is 0.0: the worst error once read 0 and passed --strict
        code, err = run_failing(
            tmp_path, capsys, "validate-analytic", {"params": PARAMS}, "--tmax", "1e308", "--strict"
        )
        assert code == 1
        assert err.startswith("numerical error")

    def test_transfer_time_huge_window(self, tmp_path, capsys):
        flags = ["--tmax", "1e308", "--grid", "9"]
        code, err = run_failing(tmp_path, capsys, "transfer-time", {"params": PARAMS}, *flags)
        assert code == 1
        assert err.startswith("numerical error")


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["switch", "blocks"])
    def test_failed_write_prints_no_report(self, tmp_path, capsys, command):
        missing = str(tmp_path / "no-such-dir" / "x.csv")
        if command == "switch":
            cfg, flags = _with(SWITCH, protocol__times=T_UPLOAD, output__path=missing), []
        else:
            cfg, flags = CHAIN, ["--out", missing]
        # run_failing checks that stdout is empty and stderr is one line
        code, err = run_failing(tmp_path, capsys, command, cfg, *flags)
        assert code == 1
        assert err.startswith("error: ")


class TestConfigContract:
    @pytest.mark.parametrize(
        "command, cfg, flags",
        [
            ("switch", _with(SWITCH, protocol__times=[]), []),
            ("switch", _with(SWITCH, protocol__times=[T_UPLOAD, 99]), []),
            ("switch", _with(SWITCH, protocol__times=T_UPLOAD, protocol__port=True), []),
            ("simulate", _with(CHAIN, protocol__grid=[1]), []),
            ("simulate", _with(CHAIN, protocol__grid="x"), []),
            ("simulate", _with(CHAIN, grid=2), []),  # the top-level grid is read too
            ("route", _with(HEX_ROUTE, protocol__grid=True), []),
            ("simulate", _with(CHAIN, protocol__window=[None, 3]), []),
            ("entangle", _with(CHAIN, window=[0.0, float("nan")]), []),
            ("simulate", _with(CHAIN, output__samples_per_window=[3]), []),
            ("simulate", _with(CHAIN, protocol__times=[T1, T2], output__path=True), []),
            ("simulate", _with(CHAIN, n=True, protocol__times=[T1, T2]), []),
            ("simulate", _with(CHAIN, params__g=True, protocol__times=[T1, T2]), []),
            ("simulate", _with(CHAIN, n=10**6, protocol__times=[T1, T2]), []),
            ("simulate", _with(CHAIN, protocol__times=[T1, T2]), ["--samples", "2000000000"]),
            ("simulate", _with(CHAIN, params__delta=1e300), []),
            ("simulate", CHAIN, ["--tmax", "1e308"]),
            ("validate-analytic", {"params": PARAMS, "samples": [3]}, []),
            ("validate-analytic", {"params": PARAMS, "samples": 2_000_000_000}, []),
            ("transfer-time", {"params": PARAMS}, ["--tmax", "1e308"]),
            ("transfer-time", {"params": PARAMS, "block": "first"}, []),
            ("transfer-time", {"params": {"delta": 1e300}}, []),
            # JSON ids, signs and ports are never coerced to int
            ("transfer-time", CUSTOM_FLOAT_EDGE, ["--source", "1", "--target", "3"]),
            ("route", _with(ROUTE, descriptor=_with(HEX, links=[["a", 1.7, "b", 1]])), []),
            ("route", _with(ROUTE, descriptor=_with(HEX, vertices="ab")), []),
            ("blocks", {"topology": "hex_lattice", "descriptor": _with(HEX, vertices="ab")}, []),
            ("transfer-time", CUSTOM_BAD_LABELS, ["--source", "1", "--target", "3"]),
            ("route", _with(ROUTE, descriptor=COMMA_HEX, protocol__path=["a,x", "b"]), []),
            # once t_star=-2.22314941144 and exit 0: the mirror image of the peak at t > 0
            ("transfer-time", _with(CHAIN, n=3, window=[-5, 5]), ["--block", "end"]),
            ("route", _with(ROUTE, protocol__path=["a", "b", "a"]), []),
            # the default window's grid is over the budget, or no beat carries the transfer
            ("transfer-time", {"params": {"delta": -3000}}, []),
            ("transfer-time", {"params": {"delta": -5000}}, []),
            ("transfer-time", {"params": {"g": 1e300}}, []),
            ("transfer-time", {"params": {"delta": -1e7}}, []),
        ],
    )
    def test_rejected_with_one_line(self, tmp_path, capsys, command, cfg, flags):
        code, err = run_failing(tmp_path, capsys, command, cfg, *flags)
        assert code == 2
        assert err.startswith("config error: ")

    def test_top_level_grid_matches_protocol_grid(self, tmp_path, capsys):
        outputs = []
        for cfg in (_with(CHAIN, grid=8001), _with(CHAIN, protocol__grid=8001)):
            path = write_config(tmp_path, "c.json", cfg)
            code, out, _ = run_main(capsys, ["simulate", "--config", path])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestConfigRefusals:
    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            ("blocks", [CHAIN], "config must be a JSON object"),
            ("blocks", {"topology": "hex_lattice"}, "hex_lattice needs a 'descriptor' object"),
            ("transfer-time", {"topology": "custom"}, "custom topology needs a 'network' object"),
            (
                "validate-analytic",
                {"params": PARAMS, "blocks": []},
                "'blocks' must be a non-empty list of block names",
            ),
        ],
        ids=["config-array", "lattice-without-descriptor", "custom-without-network", "no-blocks"],
    )
    def test_refused_with_its_message(self, tmp_path, capsys, command, cfg, message):
        path = write_config(tmp_path, "c.json", cfg)
        code, out, err = run_main(capsys, [command, "--config", path])
        assert (code, out, err) == (2, "", f"config error: {message}\n")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "command, cfg, flags",
        [
            ("blocks", CHAIN, ["--samples", "7", "--grid", "5", "--tmax", "3"]),
            ("transfer-time", {"params": PARAMS}, ["--out", "{out}"]),
            ("validate-analytic", {"params": PARAMS, "samples": 3}, ["--out", "{out}"]),
            ("blocks", CHAIN, ["--block", "end"]),
        ],
    )
    def test_flag_the_subcommand_does_not_read(self, tmp_path, capsys, command, cfg, flags):
        # run_failing also checks that no output file was written
        flags = [str(tmp_path / "trace.csv") if flag == "{out}" else flag for flag in flags]
        code, err = run_failing(tmp_path, capsys, command, cfg, *flags)
        assert code == 2
        assert err.startswith("config error: ") and "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [["blocks"], ["simulate", "--config"], ["transfer-time", "--config", "c.json", "--grid", "x"]],
    )
    def test_parse_error_is_one_line(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")


class TestNormDrift:
    def test_non_orthogonal_spectrum_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        from cavity_route import routing
        from cavity_route.evolution import Spectrum, eigendecompose

        def skewed(h):
            spectrum = eigendecompose(h)
            return Spectrum(spectrum.eigenvalues, spectrum.eigenvectors * (1.0 + 1e-7))

        monkeypatch.setattr(routing, "eigendecompose", skewed)
        cfg = _with(CHAIN, protocol__times=[T1, T2])
        code, err = run_failing(tmp_path, capsys, "simulate", cfg)
        assert code == 1
        assert err.startswith("numerical error: norm drift")

    def test_drift_in_a_squeezed_window_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        # A 20-unit chain at 241 samples evolves its relay run as the 6 rows of R from window 14
        # on, when 13 relay blocks are live.  Eigenvectors scaled by 1 + eps scale the state by
        # (1 + eps)^2 per window, so the norm drifts by about 2 k eps in window k: past 1e-9
        # first in window 17, a squeezed one, whose norm is summed from R's rows
        from cavity_route import routing
        from cavity_route.evolution import Spectrum, eigendecompose

        def skewed(h):
            spectrum = eigendecompose(h)
            return Spectrum(spectrum.eigenvalues, spectrum.eigenvectors * (1.0 + 1e-9 / 33))

        monkeypatch.setattr(routing, "eigendecompose", skewed)
        cfg = _with(CHAIN, n=20, output={"samples_per_window": 241}, protocol__times=[T1, T2])
        code, err = run_failing(tmp_path, capsys, "simulate", cfg)
        assert code == 1
        assert err.startswith("numerical error: norm drift 1.03")
        assert err.rstrip().endswith("in evolution window 17")


class TestBlockNativeProtocols:
    @pytest.mark.parametrize(
        "command, cfg",
        [
            (
                "simulate",
                {"topology": "diamond_chain", "n": 30, "protocol": {"times": [T1, T2]}},
            ),
            ("switch", {"topology": "switch", "protocol": {"times": T_UPLOAD, "port": 2}}),
            (
                "route",
                {
                    "topology": "hex_lattice",
                    "descriptor": {
                        "vertices": brick_wall(3, 3)[0],
                        "links": brick_wall(3, 3)[1],
                        "uploads": ["r0c0", "r1c2"],
                    },
                    "protocol": {
                        "times": [T_UPLOAD, T_HOP],
                        "path": ["r0c0", "r1c0", "r1c1", "r1c2"],
                    },
                },
            ),
        ],
    )
    def test_no_eigendecomposition_wider_than_a_block(
        self, tmp_path, capsys, monkeypatch, command, cfg
    ):
        import numpy as np

        widths = []
        original = np.linalg.eigh

        def recorded(m):
            widths.append(np.shape(m)[-1])
            return original(m)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        path = write_config(tmp_path, "c.json", {**cfg, "params": PARAMS})
        code, _, _ = run_main(capsys, [command, "--config", path, "--samples", "3", "--strict"])
        assert code == 0
        assert widths and max(widths) <= 6

    def test_chain_of_a_thousand_units(self, tmp_path, capsys):
        # 6002 modes: no dense 6002 x 6002 array is needed on the way
        cfg = {"topology": "diamond_chain", "n": 1000, "protocol": {"times": [T1, T2]}}
        path = write_config(tmp_path, "c.json", {**cfg, "params": PARAMS})
        code, out, err = run_main(capsys, ["simulate", "--config", path, "--samples", "2"])
        assert (code, err) == (0, "")
        fields = dict(kv.split("=") for kv in out.split())
        assert 0.0 < float(fields["fidelity"]) <= 1.0

    def test_chain_above_the_cap_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        from cavity_route import cli
        from cavity_route.network import ARRAY_BUDGET

        built = []
        monkeypatch.setattr(cli, "build_diamond_chain", lambda *a: built.append(a))
        # one window of 241 samples over the 6n + 2 modes must fit the array budget
        n = (ARRAY_BUDGET // 241 - 2) // 6 + 1
        assert 241 * (6 * n + 2) > ARRAY_BUDGET >= 241 * (6 * n - 4)
        cfg = {"topology": "diamond_chain", "n": n, "protocol": {"times": [T1, T2]}}
        for command, flags in (("simulate", ["--samples", "2"]), ("blocks", [])):
            path = write_config(tmp_path, "c.json", {**cfg, "params": PARAMS})
            code, out, err = run_main(capsys, [command, "--config", path, *flags])
            assert (code, out) == (2, "")
            expected = "diamond_chain 'n' must be an integer in"
            assert err == f"config error: {expected} [1, {n - 1}], got {n}\n"
        assert built == []

    def test_route_lays_out_the_lattice_once(self, tmp_path, capsys, monkeypatch):
        from cavity_route import network

        layouts = []
        original = network.HexLayout
        monkeypatch.setattr(network, "HexLayout", lambda **k: layouts.append(k) or original(**k))
        vertices, links = brick_wall(3, 3)
        cfg = {
            "topology": "hex_lattice",
            "descriptor": {"vertices": vertices, "links": links, "uploads": ["r0c0", "r1c2"]},
            "protocol": {"times": [T_UPLOAD, T_HOP], "path": ["r0c0", "r1c0", "r1c1", "r1c2"]},
        }
        path = write_config(tmp_path, "c.json", {**cfg, "params": PARAMS})
        code, _, _ = run_main(capsys, ["route", "--config", path, "--samples", "3"])
        assert code == 0
        assert len(layouts) == 1
