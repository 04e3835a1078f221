"""Seeded workload generators for the cavity-route benchmark.

A workload is a fixed list of CLI operations.  The seed picks orders,
lattice endpoints, chain sizes and switch ports; it never changes how much
work a round does in the layer the workload is meant to stress, so that runs
with different seeds are comparable.  The first operation of every list is
fixed and doubles as the warm-up that ``setup_s`` includes.

This module imports nothing from numpy or cavity_route, so the benchmark can
time the package import itself.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

REGIMES = {"resonant": 0.0, "dispersive": -1000.0}

#: Transfer times that ``"times": "auto"`` resolves on the default blocks.
#: The resonant ones are the values the README quotes.  Keys are block names.
RESOLVED_TIMES = {
    "resonant": {
        "end": 2.22314941406,
        "mid": 3.14140673828,
        "upload": 1.59477392578,
        "hop": 2.22301806641,
    },
    "dispersive": {
        "end": 266.573545158,
        "mid": 376.991885906,
        "upload": 188.495939869,
        "hop": 266.570425424,
    },
}

WORKLOADS = ("resonant-protocols", "dispersive-protocols", "network-scale")

SAMPLES_PER_WINDOW = 241


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy.

    ``expect`` holds the facts the checker needs that the output alone does
    not carry: the regime, the chain size or hop count, which reported times
    come from a search, explicit input times, the expected Hamiltonian
    dimension, and fidelities recorded from a reference run where the
    physics sits below the strict gate.
    """

    name: str
    command: str
    config: dict
    flags: tuple[str, ...] = ()
    csv: bool = False
    expect: dict = field(default_factory=dict)


# --- lattice geometry ----------------------------------------------------


def vertex_name(r: int, c: int) -> str:
    return f"r{r}c{c}"


def brick_wall(rows: int, cols: int) -> tuple[list[str], list[list]]:
    """Vertices and links of a brick-wall (honeycomb) lattice.

    ``(r, c)-(r, c+1)`` joins port 1 of the left vertex to port 2 of the
    right one; ``(r, c)-(r+1, c)`` joins the two port-3s when ``r + c`` is
    even, so every vertex has at most one vertical link.
    """
    vertices = [vertex_name(r, c) for r in range(rows) for c in range(cols)]
    links = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                links.append([vertex_name(r, c), 1, vertex_name(r, c + 1), 2])
            if r + 1 < rows and (r + c) % 2 == 0:
                links.append([vertex_name(r, c), 3, vertex_name(r + 1, c), 3])
    return vertices, links


def bfs_paths(vertices: list[str], links: list[list], start: str) -> dict[str, list[str]]:
    """Shortest path from ``start`` to every reachable vertex (links in list order)."""
    neighbours: dict[str, list[str]] = {v: [] for v in vertices}
    for a, _, b, _ in links:
        neighbours[a].append(b)
        neighbours[b].append(a)
    previous: dict[str, str | None] = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if w not in previous:
                previous[w] = v
                queue.append(w)
    paths = {}
    for v in previous:
        path = [v]
        while previous[path[-1]] is not None:
            path.append(previous[path[-1]])
        paths[v] = path[::-1]
    return paths


def routes_with_hops(rows: int, cols: int, hops: int) -> list[list[str]]:
    """Every BFS route of exactly ``hops`` links between two distinct vertices."""
    vertices, links = brick_wall(rows, cols)
    routes = []
    for a in vertices:
        for b, path in bfs_paths(vertices, links, a).items():
            if a < b and len(path) - 1 == hops:
                routes.append(path)
    return routes


def lattice_dim(rows: int, cols: int) -> int:
    """Hamiltonian dimension of a brick wall with port-0 sites on every vertex.

    Per vertex: four inner sites, one port-0 site and three planar ports;
    each link merges two planar port sites into one shared site.
    """
    vertices, links = brick_wall(rows, cols)
    return 2 * (8 * len(vertices) - len(links))


def chain_dim(n: int) -> int:
    return 2 * (3 * n + 1)


# --- operations ------------------------------------------------------------


def _params(regime: str) -> dict:
    return {"delta": REGIMES[regime]}


def _protocol_flags(samples: int | None, strict: bool) -> tuple[str, ...]:
    flags = ["--strict"] if strict else []
    if samples is not None:
        flags += ["--samples", str(samples)]
    return tuple(flags)


def chain_op(
    command: str,
    n: int,
    regime: str,
    explicit: bool = False,
    samples: int | None = None,
    csv: bool = True,
    recorded: float | None = None,
) -> Op:
    """``simulate`` or ``entangle`` on a chain of ``n`` units.

    ``recorded`` replaces the fidelity gate with a recorded value and turns
    ``--strict`` off, for chains whose physics sits below the gate.
    """
    times = RESOLVED_TIMES[regime]
    protocol = {"times": [times["end"], times["mid"]]} if explicit else {"times": "auto"}
    if command == "entangle":
        protocol["compensate"] = True
    return Op(
        name=f"{command}-n{n}-{regime[:3]}" + ("-final" if samples == 2 else ""),
        command=command,
        config={"topology": "diamond_chain", "n": n, "params": _params(regime), "protocol": protocol},
        flags=_protocol_flags(samples, strict=recorded is None),
        csv=csv,
        expect={
            "regime": regime,
            "n": n,
            "dim": chain_dim(n),
            "windows": n + 1,
            "samples": samples or SAMPLES_PER_WINDOW,
            "searched": {} if explicit else {"t1": "end", "t2": "mid"},
            "explicit": {"t1": times["end"], "t2": times["mid"]} if explicit else {},
            "recorded": recorded,
        },
    )


def switch_op(port: int, regime: str) -> Op:
    return Op(
        name=f"switch-p{port}-{regime[:3]}",
        command="switch",
        config={
            "topology": "switch",
            "params": _params(regime),
            "protocol": {"times": "auto", "port": port},
        },
        flags=("--strict",),
        csv=True,
        expect={
            "regime": regime,
            "dim": 16,
            "windows": 2,
            "samples": SAMPLES_PER_WINDOW,
            "searched": {"t": "upload"},
            "explicit": {},
        },
    )


def route_op(
    rows: int,
    cols: int,
    path: list[str],
    regime: str,
    explicit: bool = False,
    samples: int | None = None,
    csv: bool = True,
) -> Op:
    vertices, links = brick_wall(rows, cols)
    times = RESOLVED_TIMES[regime]
    hops = len(path) - 1
    protocol = (
        {"times": [times["upload"], times["hop"]]} if explicit else {"times": "auto"}
    )
    protocol["path"] = path
    return Op(
        name=f"route-{rows}x{cols}-h{hops}-{regime[:3]}" + ("-final" if samples == 2 else ""),
        command="route",
        config={
            "topology": "hex_lattice",
            "descriptor": {"vertices": vertices, "links": links, "uploads": [path[0], path[-1]]},
            "params": _params(regime),
            "protocol": protocol,
        },
        flags=_protocol_flags(samples, strict=True),
        csv=csv,
        expect={
            "regime": regime,
            "hops": hops,
            "dim": lattice_dim(rows, cols),
            "windows": hops + 2,
            "samples": samples or SAMPLES_PER_WINDOW,
            "searched": {} if explicit else {"t_upload": "upload", "t_hop": "hop"},
            "explicit": {"t_upload": times["upload"], "t_hop": times["hop"]} if explicit else {},
        },
    )


def transfer_time_op(block: str, regime: str) -> Op:
    return Op(
        name=f"transfer-time-{block}-{regime[:3]}",
        command="transfer-time",
        config={"topology": "diamond_chain", "n": 3, "params": _params(regime)},
        flags=("--block", block, "--strict"),
        expect={"regime": regime, "block": block},
    )


def blocks_chain_op(n: int, regime: str) -> Op:
    return Op(
        name=f"blocks-chain{n}-{regime[:3]}",
        command="blocks",
        config={"topology": "diamond_chain", "n": n, "params": _params(regime)},
        flags=("--strict",),
        expect={"dim": chain_dim(n)},
    )


def blocks_switch_op(regime: str) -> Op:
    return Op(
        name=f"blocks-switch-{regime[:3]}",
        command="blocks",
        config={"topology": "switch", "params": _params(regime)},
        flags=("--strict",),
        expect={"dim": 16},
    )


def blocks_lattice_op(rows: int, cols: int, regime: str, uploads: list[str]) -> Op:
    vertices, links = brick_wall(rows, cols)
    return Op(
        name=f"blocks-{rows}x{cols}-{regime[:3]}",
        command="blocks",
        config={
            "topology": "hex_lattice",
            "descriptor": {"vertices": vertices, "links": links, "uploads": uploads},
            "params": _params(regime),
        },
        flags=("--strict",),
        expect={"dim": lattice_dim(rows, cols)},
    )


def validate_op(regime: str) -> Op:
    return Op(
        name=f"validate-analytic-{regime[:3]}",
        command="validate-analytic",
        config={"params": _params(regime)},
        flags=("--strict",),
        expect={"lines": 8},
    )


# --- workloads -------------------------------------------------------------

#: Routes of 1-3 hops in the protocol workloads all run on this lattice, so a
#: seed moves the endpoints but not the matrix size.
PROTOCOL_LATTICE = (3, 3)

#: Final fidelity of ``simulate`` on a resonant N=100 chain at the resolved
#: times, and the Bell fidelity of ``entangle`` on the same chain.  The
#: physics gives less than the 0.99 strict gate, so these operations run
#: without ``--strict`` and are checked against these values instead.
RECORDED_N100_RESONANT = {"simulate": 0.985645043061, "entangle": 0.992809549204}


def _route(rng: random.Random, rows: int, cols: int, hops: int) -> list[str]:
    return rng.choice(routes_with_hops(rows, cols, hops))


def _resonant_protocols(rng: random.Random, smoke: bool) -> list[Op]:
    regime = "resonant"
    rows, cols = PROTOCOL_LATTICE
    if smoke:
        chains, ports, hops, pairs = [2], [rng.randint(1, 3)], [1], [2]
    else:
        chains, ports, hops, pairs = list(range(2, 9)), [1, 2, 3], [1, 2, 3], [2, 3, 4]
    ops = [chain_op("simulate", n, regime) for n in chains]
    ops += [switch_op(port, regime) for port in ports]
    ops += [route_op(rows, cols, _route(rng, rows, cols, h), regime) for h in hops]
    ops += [chain_op("entangle", n, regime) for n in pairs]
    ops += [transfer_time_op(block, regime) for block in ("end", "mid", "upload", "hop")]
    # one blocks call, on a topology the seed picks: with the three of them
    # the median latency fell in the gap between the cheap calls (< 15 ms)
    # and the protocol runs (> 20 ms) and jumped across it from run to run
    blocks = [
        blocks_chain_op(rng.choice(chains), regime),
        blocks_switch_op(regime),
        blocks_lattice_op(rows, cols, regime, _route(rng, rows, cols, 1)[::-1]),
    ]
    ops += [rng.choice(blocks), validate_op(regime)]
    warm_up = chain_op("simulate", 3, regime)
    rng.shuffle(ops)
    return [warm_up] + ops


def _dispersive_protocols(rng: random.Random, smoke: bool) -> list[Op]:
    regime = "dispersive"
    rows, cols = PROTOCOL_LATTICE
    n_chain = 2 if smoke else rng.randint(2, 8)
    n_pair = 2 if smoke else rng.randint(2, 4)
    hops = 1 if smoke else rng.randint(1, 3)
    ops = [transfer_time_op(block, regime) for block in ("mid", "upload", "hop")]
    ops += [
        chain_op("simulate", n_chain, regime),
        chain_op("entangle", n_pair, regime),
        switch_op(rng.randint(1, 3), regime),
        route_op(rows, cols, _route(rng, rows, cols, hops), regime),
        blocks_chain_op(n_chain, regime),
        validate_op(regime),
    ]
    if smoke:
        ops = ops[3:]
    warm_up = transfer_time_op("end", regime)
    rng.shuffle(ops)
    return [warm_up] + ops


#: Brick-wall lattices of the scale workload and their route lengths: the
#: longest BFS route in each, corner to corner.
SCALE_LATTICES = ((4, 4, 6), (6, 6, 10))
SCALE_CHAINS = (30, 100)


def _network_scale(rng: random.Random, smoke: bool) -> list[Op]:
    chains = SCALE_CHAINS[:1] if smoke else SCALE_CHAINS
    lattices = SCALE_LATTICES[:1] if smoke else SCALE_LATTICES
    regimes = list(REGIMES)
    ops: list[Op] = []
    for n in chains:
        # on the largest chain only one regime gets the full trace; which one
        # is the seed's choice, since both cost the same
        heavy = rng.choice(regimes) if n == max(chains) else None
        for regime in regimes:
            recorded = RECORDED_N100_RESONANT if (n, regime) == (100, "resonant") else {}
            full_trace = heavy in (None, regime)
            ops.append(
                chain_op(
                    "simulate",
                    n,
                    regime,
                    explicit=True,
                    samples=None if full_trace else 2,
                    csv=full_trace,
                    recorded=recorded.get("simulate"),
                )
            )
            ops.append(
                chain_op(
                    "entangle",
                    n,
                    regime,
                    explicit=True,
                    samples=2,
                    csv=False,
                    recorded=recorded.get("entangle"),
                )
            )
            ops.append(blocks_chain_op(n, regime))
    for rows, cols, hops in lattices:
        heavy = rng.choice(regimes) if (rows, cols) == lattices[-1][:2] else None
        path = _route(rng, rows, cols, hops)
        for regime in regimes:
            full_trace = heavy in (None, regime)
            ops.append(
                route_op(
                    rows,
                    cols,
                    path,
                    regime,
                    explicit=True,
                    samples=None if full_trace else 2,
                    csv=full_trace,
                )
            )
            ops.append(blocks_lattice_op(rows, cols, regime, [path[0], path[-1]]))
    # one small search and one closed-form check keep every layer's time
    # above 0 (an idle layer would read exactly 0 on every run); together
    # they are about 0.2% of a round
    ops += [transfer_time_op("hop", "resonant"), validate_op("resonant")]
    warm_up = chain_op("simulate", SCALE_CHAINS[0], "resonant", explicit=True, samples=2, csv=False)
    rng.shuffle(ops)
    return [warm_up] + ops


_GENERATORS = {
    "resonant-protocols": _resonant_protocols,
    "dispersive-protocols": _dispersive_protocols,
    "network-scale": _network_scale,
}


def make_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The workload's operation list for ``seed``; ``smoke`` picks the smallest sizes."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), smoke)
