"""One input rule for every entry point.

An integer is a Python or numpy integer, never a bool or a float; a real is a
finite Python or numpy number, never a bool.  Anything else is a ``ValueError``
that names the argument.
"""

import math
import os
import re

import numpy as np
import pytest

from cavity_route import (
    RESONANT,
    BlockHamiltonian,
    Evolve,
    ExcitationState,
    HexLatticeDescriptor,
    NetworkSpec,
    OrthogonalTransform,
    PhaseFlip,
    PhaseShift,
    Schedule,
    Site,
    SystemParams,
    TraceResult,
    auto_grid_points,
    build_diamond_chain,
    build_hex_lattice,
    chain_collective_basis,
    chain_routing_schedule,
    eigendecompose,
    entanglement_transfer,
    extract_block,
    find_transfer_time,
    hex_routing_schedule,
    propagate,
    run_schedule,
    site_population,
    switch_port_flip,
    switch_schedule,
)
from cavity_route.cli import emit_trace_csv

INF = math.inf
TWO_VERTEX = HexLatticeDescriptor(("a", "b"), (("a", 1, "b", 1),), ("a", "b"))
END = extract_block(RESONANT, "end")
CHAIN = build_diamond_chain(1, RESONANT)
CHAIN_SCHEDULE = chain_routing_schedule(1, 1.0, 1.0)
STATE = ExcitationState.excitation(4, 1)


EYE2 = (np.arange(2), np.arange(2), np.ones(2))  # the nonzeros of the 2 x 2 identity


def _track(*mode):
    return lambda: run_schedule(CHAIN, CHAIN_SCHEDULE, samples_per_window=2, track=[mode])


# (argument the message must name, call); every call here was accepted, misread
# or crashed with TypeError / IndexError / FloatingPointError before the rule
MALFORMED = {
    "chain-bool-n": ("n", lambda: build_diamond_chain(True)),
    "chain-float-n": ("n", lambda: build_diamond_chain(2.0)),
    "schedule-bool-n": ("n", lambda: chain_routing_schedule(True, 1.0, 1.0)),
    "basis-float-n": ("n", lambda: chain_collective_basis(2.0)),
    "port-flip-bools": ("port", lambda: switch_port_flip(False, True)),
    "port-flip-float": ("port", lambda: switch_port_flip(0, 1.0)),
    "switch-float-port": ("port", lambda: switch_schedule(2.0, 1.0)),
    "evolve-inf": ("evolution window", lambda: Evolve(INF)),
    "evolve-bool": ("evolution window", lambda: Evolve(True)),
    "chain-inf-t1": ("t1", lambda: chain_routing_schedule(2, INF, 1.0)),
    "switch-inf-t": ("t", lambda: switch_schedule(2, INF)),
    "hex-inf-t-upload": (
        "t_upload",
        lambda: hex_routing_schedule(TWO_VERTEX, ["a", "b"], INF, 1.0),
    ),
    "flip-bare-int": ("atom_sites", lambda: PhaseFlip(2)),
    "search-bool-source": ("source", lambda: find_transfer_time(END, True, 3)),
    "search-float-source": ("source", lambda: find_transfer_time(END, 1.0, 3)),
    "excitation-bool-index": ("mode index", lambda: ExcitationState.excitation(4, True)),
    "excitation-float-index": ("mode index", lambda: ExcitationState.excitation(4, 1.0)),
    "population-float-site": ("site", lambda: site_population(STATE, 1.0, "atom")),
    "search-float-grid": ("grid_points", lambda: find_transfer_time(END, 1, 3, grid_points=5001.0)),
    "search-inf-window": ("window", lambda: find_transfer_time(END, 1, 3, window=(0, INF))),
    "search-scalar-window": ("window", lambda: find_transfer_time(END, 1, 3, window=5)),
    "search-triple-window": ("window", lambda: find_transfer_time(END, 1, 3, window=(0, 1, 2))),
    # F(-t) = F(t): a window before t = 0 once gave the mirror image of the peak, t* < 0
    "search-negative-window": ("window", lambda: find_transfer_time(END, 1, 3, window=(-5, 5))),
    "autogrid-none-window": ("window", lambda: auto_grid_points(END, None)),
    "state-odd-length": ("amplitudes", lambda: ExcitationState(amps=[1.0])),
    "population-odd-state": (
        "amplitudes",
        lambda: site_population(ExcitationState(amps=[1.0]), 0, "cavity"),
    ),
    "run-float-samples": (
        "samples_per_window",
        lambda: run_schedule(CHAIN, CHAIN_SCHEDULE, samples_per_window=3.0),
    ),
    "track-negative-row": ("track mode", _track(-1, "atom")),
    "track-bool-row": ("track mode", _track(True, "atom")),
    "track-row-past-end": ("track mode", _track(4, "cavity")),
    # the kind also names the trace column, so it must be 'cavity' or 'atom'
    "track-int-label": ("track mode", _track(1, 5)),
    "schedule-float-step": ("steps", lambda: Schedule((1.0,), (0, "atom"), (3, "atom"))),
    "hex-string-path": ("path", lambda: hex_routing_schedule(TWO_VERTEX, "ab", 1.0, 1.0)),
    "entangle-str-compensate": (
        "compensate",
        lambda: entanglement_transfer(CHAIN, CHAIN_SCHEDULE, compensate="no"),
    ),
    # these raised AttributeError, TypeError, IndexError or an unnamed unpack error
    "spec-int-sites": ("sites", lambda: NetworkSpec((5,), ())),
    "spec-none-sites": ("sites", lambda: NetworkSpec(None, ())),
    "transform-int-labels": ("labels", lambda: OrthogonalTransform(EYE2, 5, (("g", (0, 1)),))),
    "transform-float-group-rows": (
        "group row",
        lambda: OrthogonalTransform(EYE2, ("x", "y"), (("g", (0.0, 1.0)),)),
    ),
    "transform-group-without-rows": (
        "groups",
        lambda: OrthogonalTransform(EYE2, ("x", "y"), (("g",),)),
    ),
    "schedule-int-source": ("source", lambda: Schedule((Evolve(1.0),), 5, (3, "atom"))),
    "schedule-triple-source": (
        "source",
        lambda: Schedule((Evolve(1.0),), (0, "atom", 1), (3, "atom")),
    ),
    "track-triple-mode": ("track mode", _track(0, "atom", 1)),
    "track-int": (
        "track",
        lambda: run_schedule(CHAIN, CHAIN_SCHEDULE, samples_per_window=2, track=0),
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_one_named_value_error(name):
    argument, call = MALFORMED[name]
    with pytest.raises(ValueError, match=rf"\b{argument}\b"):
        call()


THREE_IN_A_ROW = HexLatticeDescriptor(("a", "b", "c"), (("a", 1, "b", 2), ("b", 3, "c", 1)), ("a",))


@pytest.mark.parametrize("path, vertex", [("aba", "b"), ("abcba", "c")])
def test_route_that_turns_back_names_the_vertex(path, vertex):
    # once refused only by the port flip, as "port flip needs two distinct ports"
    message = rf"^path turns back at '{vertex}' along the link it arrived by$"
    with pytest.raises(ValueError, match=message):
        hex_routing_schedule(THREE_IN_A_ROW, list(path), 1.0, 1.0)


TWO_SITES = (Site(0, "a"), Site(1, "b"))
THREE_SITES = (*TWO_SITES, Site(2, "c"))
NO_SAMPLES = np.empty(0)
EMPTY_TRACE = TraceResult(
    NO_SAMPLES, NO_SAMPLES, np.empty((0, 1)), ("atom[1]",), NO_SAMPLES, STATE, 0j, 0.0
)

# (the whole message, call): a well-formed value that is refused
REFUSED = {
    "block-not-square": (
        "block matrix must be square",
        lambda: BlockHamiltonian(np.zeros((2, 3)), ("x", "y")),
    ),
    "block-one-label-short": (
        "one label per block basis vector required",
        lambda: BlockHamiltonian(np.eye(2), ("x",)),
    ),
    "extract-dict-params": (
        "params must be a SystemParams",
        lambda: extract_block({"g": 65.0}, "end"),
    ),
    "propagate-other-dim": (
        "state dim 4 != spectrum dim 6",
        lambda: propagate(eigendecompose(extract_block(RESONANT, "mid")), STATE, 1.0),
    ),
    "params-json-list": (
        "params must be a JSON object",
        lambda: SystemParams.from_json_dict([65.0]),
    ),
    "site-unknown-role": ("unknown site role 'relay'", lambda: Site(0, "a", role="relay")),
    "spec-no-sites": ("a network needs at least one site", lambda: NetworkSpec((), ())),
    "spec-edge-pair": (
        "edge must be (k, l, sign), got (0, 1)",
        lambda: NetworkSpec(TWO_SITES, ((0, 1),)),
    ),
    "spec-edge-zero-sign": (
        "edge sign must be +1 or -1, got 0",
        lambda: NetworkSpec(TWO_SITES, ((0, 1, 0),)),
    ),
    "spec-json-list": (
        "network spec must be a JSON object",
        lambda: NetworkSpec.from_json_dict([]),
    ),
    "spec-self-loop": (
        "edge (0, 0, 1) is a self-loop",
        lambda: NetworkSpec(TWO_SITES, ((0, 0, 1),)),
    ),
    "spec-edge-sign-two": (
        "edge sign must be an integer in [-1, 1], got 2",
        lambda: NetworkSpec(TWO_SITES, ((0, 1, 2),)),
    ),
    "spec-edge-repeated-reversed": (
        "duplicate edge for site pair (0, 1)",
        lambda: NetworkSpec(TWO_SITES, ((0, 1, 1), (1, 0, -1))),
    ),
    "spec-site-id-gap": (
        "site ids must be consecutive from 0; position 1 has id 2",
        lambda: NetworkSpec((Site(0, "a"), Site(2, "b")), ()),
    ),
    "spec-edge-site-past-end": (
        "edge site must be an integer in [0, 1], got 5",
        lambda: NetworkSpec(TWO_SITES, ((0, 5, 1),)),
    ),
    # numpy reads True among ints as 1, and a list of equal rows as one array: the checks
    # that see the edges and group rows as arrays must refuse these all the same
    "spec-bool-edge-site": (
        "edge site must be an integer in [0, 1], got True",
        lambda: NetworkSpec(TWO_SITES, ((0, True, 1),)),
    ),
    "spec-array-edges": (
        "malformed edges: array([[0, 1, 1]])",
        lambda: NetworkSpec(TWO_SITES, np.array([[0, 1, 1]])),
    ),
    # of several refused edges, the first in the list names the fault
    "spec-first-refused-edge": (
        "edge sign must be +1 or -1, got 0",
        lambda: NetworkSpec(THREE_SITES, ((0, 1, 1), (1, 2, 0), (2, 2, 1), (0, 5, 1))),
    ),
    "spec-repeat-before-bad-site": (
        "duplicate edge for site pair (0, 1)",
        lambda: NetworkSpec(THREE_SITES, ((0, 1, 1), (1, 0, 1), (0, 2.0, 1))),
    ),
    "transform-bool-group-row": (
        "group row must be an integer in [0, 1], got True",
        lambda: OrthogonalTransform(EYE2, ("x", "y"), (("g", (0, True)),)),
    ),
    "transform-array-group-rows": (
        "malformed group rows: array([0, 1])",
        lambda: OrthogonalTransform(EYE2, ("x", "y"), (("g", np.array([0, 1])),)),
    ),
    "lattice-repeated-vertex": (
        "vertices must be a non-empty list of unique names",
        lambda: HexLatticeDescriptor(("a", "a"), (), ()),
    ),
    "lattice-link-triple": (
        "link must be (a, port_a, b, port_b), got ('a', 1, 'b')",
        lambda: HexLatticeDescriptor(("a", "b"), (("a", 1, "b"),), ()),
    ),
    "lattice-port-taken-twice": (
        "port ('a', 1) is occupied by more than one link",
        lambda: HexLatticeDescriptor(("a", "b", "c"), (("a", 1, "b", 1), ("a", 1, "c", 2)), ()),
    ),
    "lattice-unknown-vertex": (
        "link ('a', 1, 'c', 1) references an unknown vertex",
        lambda: HexLatticeDescriptor(("a", "b"), (("a", 1, "c", 1),), ()),
    ),
    "lattice-unhashable-vertex": (
        "link (['a'], 1, 'b', 1) references an unknown vertex",
        lambda: HexLatticeDescriptor(("a", "b"), ((["a"], 1, "b", 1),), ()),
    ),
    "lattice-comma-in-vertex": (
        "site label must be text without ',', '|' or a line break, got 'a,b.mu0'",
        lambda: build_hex_lattice(HexLatticeDescriptor(("c", "a,b"), (), ()), RESONANT),
    ),
    "lattice-repeated-upload": (
        "duplicate upload vertices",
        lambda: HexLatticeDescriptor(("a", "b"), (("a", 1, "b", 1),), ("a", "a")),
    ),
    "lattice-json-list": (
        "lattice descriptor must be a JSON object",
        lambda: HexLatticeDescriptor.from_json_dict([]),
    ),
    "lattice-json-without-links": (
        "malformed lattice descriptor: missing 'links'",
        lambda: HexLatticeDescriptor.from_json_dict({"vertices": ["a"]}),
    ),
    "hex-zero-upload-time": (
        "transfer times must be positive",
        lambda: hex_routing_schedule(TWO_VERTEX, ["a", "b"], 0.0, 1.0),
    ),
    "csv-empty-trace": (
        "refusing to write an empty trace",
        lambda: emit_trace_csv(EMPTY_TRACE, os.devnull, 1.0, 0.0, ()),
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refusal_is_one_value_error_with_its_message(name):
    message, call = REFUSED[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


I, F = np.int64, np.float64

# (call with Python scalars, the same call with numpy scalars)
NUMPY_SCALARS = {
    "params": (lambda: SystemParams(g=65, j=1.0), lambda: SystemParams(g=I(65), j=F(1.0))),
    "site": (lambda: Site(3, "x"), lambda: Site(I(3), "x")),
    "chain": (lambda: build_diamond_chain(2), lambda: build_diamond_chain(I(2))),
    "basis-groups": (
        lambda: chain_collective_basis(2).groups,
        lambda: chain_collective_basis(I(2)).groups,
    ),
    "evolve": (lambda: Evolve(1.5), lambda: Evolve(F(1.5))),
    "flip": (lambda: PhaseFlip((2,)), lambda: PhaseFlip((I(2),))),
    "shift": (lambda: PhaseShift(6, 0.5), lambda: PhaseShift(I(6), F(0.5))),
    "schedule": (
        lambda: Schedule((Evolve(1.0),), (0, "atom"), (3, "atom")),
        lambda: Schedule((Evolve(1.0),), (I(0), "atom"), (I(3), "atom")),
    ),
    "chain-schedule": (
        lambda: chain_routing_schedule(2, 1.0, 2.0),
        lambda: chain_routing_schedule(I(2), F(1.0), F(2.0)),
    ),
    "switch-schedule": (lambda: switch_schedule(2, 1.0), lambda: switch_schedule(I(2), F(1.0))),
    "port-flip": (lambda: switch_port_flip(0, 3), lambda: switch_port_flip(I(0), I(3))),
    "hex-schedule": (
        lambda: hex_routing_schedule(TWO_VERTEX, ["a", "b"], 1.0, 2.0),
        lambda: hex_routing_schedule(TWO_VERTEX, ["a", "b"], F(1.0), F(2.0)),
    ),
    "descriptor": (
        lambda: TWO_VERTEX,
        lambda: HexLatticeDescriptor(("a", "b"), (("a", I(1), "b", I(1)),), ("a", "b")),
    ),
    "search": (
        lambda: find_transfer_time(END, 1, 3, window=(0.0, 10.0), grid_points=2001),
        lambda: find_transfer_time(END, I(1), I(3), window=(F(0.0), I(10)), grid_points=I(2001)),
    ),
    "search-array-window": (
        lambda: find_transfer_time(END, 1, 3, window=[0.0, 10.0], grid_points=2001),
        lambda: find_transfer_time(END, 1, 3, window=np.array([0.0, 10.0]), grid_points=2001),
    ),
    "excitation-amps": (
        lambda: ExcitationState.excitation(4, 1).amps.tolist(),
        lambda: ExcitationState.excitation(I(4), I(1)).amps.tolist(),
    ),
    "population": (
        lambda: site_population(STATE, 0, "atom"),
        lambda: site_population(STATE, I(0), "atom"),
    ),
    "propagate-amps": (
        lambda: propagate(eigendecompose(END), STATE, 0.5).amps.tolist(),
        lambda: propagate(eigendecompose(END), STATE, F(0.5)).amps.tolist(),
    ),
    "run-final-amplitude": (
        lambda: run_schedule(CHAIN, CHAIN_SCHEDULE, samples_per_window=3).final_amplitude,
        lambda: run_schedule(
            CHAIN, CHAIN_SCHEDULE, samples_per_window=I(3), track=[(I(0), "atom")]
        ).final_amplitude,
    ),
}


@pytest.mark.parametrize("name", sorted(NUMPY_SCALARS))
def test_numpy_scalars_are_accepted_wherever_python_ones_are(name):
    python_call, numpy_call = NUMPY_SCALARS[name]
    assert numpy_call() == python_call()


def test_numpy_ids_come_back_as_plain_numbers():
    # json.dumps refuses numpy scalars: a spec built from them must still serialise
    sites = (Site(I(0), "a"), Site(I(1), "b"))
    params = SystemParams(omega_c=F(1.0), delta=I(0), g=I(65), j=F(1.0))
    spec = NetworkSpec(sites=sites, edges=((I(0), I(1), I(-1)),), params=params)
    assert NetworkSpec.loads(spec.dumps()) == spec
    assert type(spec.edges[0][2]) is int and type(spec.params.g) is float
    lattice = build_hex_lattice(NUMPY_SCALARS["descriptor"][1](), RESONANT)
    assert NetworkSpec.loads(lattice.dumps()) == lattice
