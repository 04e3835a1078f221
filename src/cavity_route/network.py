"""Network topologies and single-excitation Hamiltonians.

A network consists of M sites, each holding one cavity mode of frequency
``omega_c`` and one two-level atom of frequency ``omega_c - delta``, coupled
with strength ``g`` inside every site.  Neighbouring cavities exchange photons
with a hopping amplitude of fixed magnitude ``j`` and an engineered sign;
choosing the signs carefully is what produces the invariant subspaces that the
routing protocol rides on.

Within the single-excitation sector the Hamiltonian is a real symmetric
``2M x 2M`` matrix.  The mode layout is fixed throughout the package:

* site ``i`` (0-based) -> row ``2*i``   : cavity mode of site ``i``
* site ``i``           -> row ``2*i + 1``: atom of site ``i``

The vacuum carries no excitation and is annihilated by the Hamiltonian; it is
tracked separately by the propagation layer and never appears as a row here.

Three builders are provided: a diamond chain of N four-site units, an
eight-site switching element with Hadamard-signed couplings, and a planar
lattice whose vertices are copies of the switch joined by shared link
cavities.  All user-facing site labels are 1-based or name-based; internal
ids are 0-based.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "SystemParams",
    "Site",
    "NetworkSpec",
    "HexLatticeDescriptor",
    "HexLayout",
    "HADAMARD_SIGNS",
    "RESONANT",
    "DISPERSIVE",
    "cavity_index",
    "atom_index",
    "build_diamond_chain",
    "build_switch",
    "build_hex_lattice",
    "hex_lattice_layout",
    "build_single_excitation_hamiltonian",
]

#: Sign pattern of the inner-outer couplings at a switching vertex.  Row i is
#: the coupling sign of inner site mu_i to the four outer slots nu_0..nu_3.
#: Rows are mutually orthogonal and each row has norm^2 = 4, which is what
#: collapses the 16 couplings into one 2j coupling per collective mode.
HADAMARD_SIGNS = (
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
)

SITE_ROLES = ("vertex", "control", "port", "upload", "plain")

#: Most elements any one array may hold, checked before allocating: the points of a scan
#: grid, one evolution window (``dim x samples``), or the blocks of a decomposition, a
#: whole network's one block included.  2**24 float64 are 128 MB.
ARRAY_BUDGET = 2**24

#: Types that ``_count`` and ``_real`` accept; bool, an int subclass, is refused by identity.
_INTEGERS, _NUMBERS = (int, np.integer), (int, float, np.integer, np.floating)


def _real(value, label: str) -> float:
    """``value`` as a float: a finite Python or numpy number, never a bool.

    The bound refuses nan, inf and ints beyond the float range.
    """
    number = isinstance(value, _NUMBERS) and value is not True and value is not False
    if not (number and -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{label} must be a finite number, got {value!r}")
    return float(value)


def _count(value, label: str, low: int, high: float = math.inf) -> int:
    """``value`` as an int in ``[low, high]``: a Python or numpy integer, never a bool or float.

    Ids, signs, ports and sizes are never coerced; numpy would read a bool index as a mask.
    """
    integer = isinstance(value, _INTEGERS) and value is not True and value is not False
    if not (integer and low <= value <= high):
        raise ValueError(f"{label} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def _listed(value, what: str, item=object) -> tuple:
    """``value`` as a tuple; it must be a list or tuple of ``item`` instances."""
    listed = isinstance(value, (list, tuple))
    if not (listed and all(issubclass(t, item) for t in set(map(type, value)))):
        raise ValueError(f"malformed {what}: {value!r}")
    return tuple(value)


def _label(value, what: str) -> str:
    """``value`` if it can name a CSV column and a ``|``-joined basis entry.

    That is a string without ``,``, ``|`` or a line break (any that ``str.splitlines`` knows).
    """
    plain = isinstance(value, str) and "".join(value.splitlines()) == value
    if not (plain and "," not in value and "|" not in value):
        raise ValueError(f"{what} must be text without ',', '|' or a line break, got {value!r}")
    return value


def cavity_index(site: int) -> int:
    """Row of the cavity mode of ``site`` in the single-excitation layout."""
    return 2 * site


def atom_index(site: int) -> int:
    """Row of the atom of ``site`` in the single-excitation layout."""
    return 2 * site + 1


def _mode(mode, sites: float, what: str) -> int:
    """Row of ``mode``, a ``(site, kind)`` pair with ``0 <= site < sites`` and kind
    ``"cavity"`` or ``"atom"``: the one place a kind and a site become a row."""
    mode = _listed(mode, what)
    if len(mode) != 2 or mode[1] not in ("cavity", "atom"):
        raise ValueError(f"{what} must be a (site, 'cavity' or 'atom') pair, got {mode!r}")
    site = _count(mode[0], f"{what} site", 0, sites - 1)
    return (atom_index if mode[1] == "atom" else cavity_index)(site)


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters shared by every site of a network.

    Attributes
    ----------
    omega_c : float
        Bare cavity frequency.
    delta : float
        Cavity-atom detuning; the atom frequency is ``omega_c - delta``.
        ``delta = 0`` is the resonant regime, ``|delta| >> g`` the
        dispersive (virtual-photon) regime.
    g : float
        Atom-cavity coupling inside each site.  Must be positive.
    j : float
        Magnitude of the cavity-cavity hopping.  Must be positive.
    """

    omega_c: float = 1.0
    delta: float = 0.0
    g: float = 65.0
    j: float = 1.0

    def __post_init__(self) -> None:
        for name in ("omega_c", "delta", "g", "j"):
            object.__setattr__(self, name, _real(getattr(self, name), f"parameter {name!r}"))
        _real(self.omega_a, "parameter 'omega_a'")
        if self.g <= 0:
            raise ValueError(f"coupling g must be positive, got {self.g}")
        if self.j <= 0:
            raise ValueError(f"hopping j must be positive, got {self.j}")

    @property
    def omega_a(self) -> float:
        """Atom frequency ``omega_c - delta``."""
        return self.omega_c - self.delta

    def to_json_dict(self) -> dict:
        return {"omega_c": self.omega_c, "delta": self.delta, "g": self.g, "j": self.j}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SystemParams":
        if not isinstance(data, dict):
            raise ValueError("params must be a JSON object")
        extra = set(data) - {"omega_c", "delta", "g", "j"}
        if extra:
            raise ValueError(f"unknown params keys: {sorted(extra)}")
        return cls(**data)


#: Default working points: every published transfer time is quoted at one of
#: these two parameter sets.
RESONANT = SystemParams(omega_c=1.0, delta=0.0, g=65.0, j=1.0)
DISPERSIVE = SystemParams(omega_c=1.0, delta=-1000.0, g=65.0, j=1.0)


@dataclass(frozen=True)
class Site:
    """One cavity+atom cell of a network.

    ``label`` is the user-facing name (1-based numbers for chains, port names
    for the switch and lattice); ``role`` records the structural function of
    the site and is one of ``vertex | control | port | upload | plain``.
    """

    id: int
    label: str
    role: str = "plain"

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", _count(self.id, "site id", 0))
        _label(self.label, "site label")
        if self.role not in SITE_ROLES:
            raise ValueError(f"unknown site role {self.role!r}")


def _sites(labels: list[str], roles: list[str]) -> tuple[Site, ...]:
    """``Site(i, labels[i], roles[i])`` for each ``i``, its labels checked once, as one text."""
    try:  # labels are plain text if and only if they join into plain text
        _label("".join(labels), "site label")
    except ValueError:  # the first refused label raises its own message
        for label in labels:
            _label(label, "site label")
    made = tuple(object.__new__(Site) for _ in labels)  # bare: the fields follow, unchecked
    for i, (site, label, role) in enumerate(zip(made, labels, roles)):
        vars(site).update(id=i, label=label, role=role)
    return made


def _edges(edges, last: int) -> tuple[tuple[int, int, int], ...]:
    """``edges`` as ``(k, l, sign)`` triples of ints.  Triples of ints are checked all at once;
    any others, or triples that fail, edge by edge, so the first refused edge raises its message."""
    edges = _listed(edges, "edges", (list, tuple))
    flat = list(chain.from_iterable(edges))
    if set(map(len, edges)) <= {3} and set(map(type, flat)) <= {int}:
        k, l, sign = flat[0::3], flat[1::3], flat[2::3]
        pairs = set(zip(k, l))  # a pair met again, reversed or as a self-loop, is in zip(l, k)
        if (0 <= min(k + l, default=0) and max(k + l, default=0) <= last and set(sign) <= {-1, 1}
                and len(pairs) == len(edges) and pairs.isdisjoint(zip(l, k))):
            return tuple(zip(k, l, sign))
    checked, seen = [], set()
    for edge in edges:
        if len(edge) != 3:
            raise ValueError(f"edge must be (k, l, sign), got {edge!r}")
        k, l = (_count(site, "edge site", 0, last) for site in edge[:2])
        sign = _count(edge[2], "edge sign", -1, 1)
        if k == l:
            raise ValueError(f"edge {edge!r} is a self-loop")
        if sign == 0:
            raise ValueError(f"edge sign must be +1 or -1, got {sign!r}")
        pair = (min(k, l), max(k, l))
        if pair in seen:
            raise ValueError(f"duplicate edge for site pair {pair}")
        seen.add(pair)
        checked.append((k, l, sign))
    return tuple(checked)


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of a network: sites, signed edges, parameters.

    Edges are triples ``(k, l, sign)`` of 0-based site ids with
    ``sign in {+1, -1}``; the cavity-cavity coupling of the pair is
    ``sign * params.j``.  Each unordered pair may appear at most once.
    """

    sites: tuple[Site, ...]
    edges: tuple[tuple[int, int, int], ...]
    params: SystemParams = field(default_factory=SystemParams)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", _listed(self.sites, "sites", Site))
        if not self.sites:
            raise ValueError("a network needs at least one site")
        ids = [site.id for site in self.sites]
        if ids != list(range(len(ids))):
            p = next(p for p, i in enumerate(ids) if i != p)
            raise ValueError(f"site ids must be consecutive from 0; position {p} has id {ids[p]}")
        object.__setattr__(self, "edges", _edges(self.edges, len(ids) - 1))

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def dim(self) -> int:
        """Dimension of the single-excitation sector."""
        return 2 * len(self.sites)

    def to_json_dict(self) -> dict:
        return {
            "sites": [{"id": s.id, "label": s.label, "role": s.role} for s in self.sites],
            "edges": [[k, l, sign] for k, l, sign in self.edges],
            "params": self.params.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NetworkSpec":
        if not isinstance(data, dict):
            raise ValueError("network spec must be a JSON object")
        missing = {"sites", "edges", "params"} - set(data)
        if missing:
            raise ValueError(f"network spec missing keys: {sorted(missing)}")
        try:
            sites = tuple(
                Site(id=s["id"], label=s["label"], role=s.get("role", "plain"))
                for s in data["sites"]
            )
            params = SystemParams.from_json_dict(data["params"])
            return cls(sites=sites, edges=data["edges"], params=params)
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed network spec: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)

    @classmethod
    def loads(cls, text: str) -> "NetworkSpec":
        return cls.from_json_dict(json.loads(text))


def build_diamond_chain(n: int, params: SystemParams | None = None) -> NetworkSpec:
    """Diamond chain of ``n`` units: ``3n + 1`` sites, ``4n`` signed edges.

    Unit ``k`` (1-based) connects vertex site ``3k - 2`` to vertex site
    ``3k + 1`` through the control pair ``3k - 1`` and ``3k`` (1-based
    labels).  Three couplings are ``+j``; the one between control site
    ``3k`` and the right vertex is ``-j``.  This sign choice decouples the
    antisymmetric control combination of one unit from the symmetric one of
    the next, splitting the chain into 4- and 6-dimensional blocks.

    Parameters
    ----------
    n : int
        Number of diamond units; must be >= 1.
    params : SystemParams, optional
        Physical parameters; defaults to the resonant working point.

    Returns
    -------
    NetworkSpec
    """
    n = _count(n, "chain units n", 1)
    roles = ["vertex", "control", "control"] * n + ["vertex"]
    sites = _sites(list(map(str, range(1, 3 * n + 2))), roles)
    # unit k joins vertex 3k to vertex 3k + 3 through the control pair 3k + 1, 3k + 2
    unit = ((0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, -1))
    edges = tuple((k + a, k + b, sign) for k in range(0, 3 * n, 3) for a, b, sign in unit)
    return NetworkSpec(sites=sites, edges=edges, params=params or SystemParams())


def build_switch(params: SystemParams | None = None) -> NetworkSpec:
    """Eight-site switching element.

    Outer sites ``nu0..nu3`` (ids 0-3) are the upload port and three delivery
    ports; inner sites ``mu0..mu3`` (ids 4-7) form the control quadruple.
    Every inner site couples to every outer site with sign
    ``HADAMARD_SIGNS[i][j]``, 16 edges in total.

    Parameters
    ----------
    params : SystemParams, optional
        Physical parameters; defaults to the resonant working point.

    Returns
    -------
    NetworkSpec
    """
    roles = ["upload", "port", "port", "port"] + ["control"] * 4
    sites = _sites("nu0 nu1 nu2 nu3 mu0 mu1 mu2 mu3".split(), roles)
    edges = tuple((4 + i, j, HADAMARD_SIGNS[i][j]) for i in range(4) for j in range(4))
    return NetworkSpec(sites=sites, edges=edges, params=params or SystemParams())


@dataclass(frozen=True)
class HexLatticeDescriptor:
    """Combinatorial description of a planar lattice of switching vertices.

    Attributes
    ----------
    vertices : tuple of str
        Vertex names, unique.
    links : tuple of (str, int, str, int)
        Each link ``(a, pa, b, pb)`` is one shared cavity site occupying
        planar port ``pa`` of vertex ``a`` and planar port ``pb`` of vertex
        ``b``; ports are in {1, 2, 3} and a port may be used by at most one
        link.
    uploads : tuple of str
        Vertices that carry an off-plane upload site on port 0.
    """

    vertices: tuple[str, ...]
    links: tuple[tuple[str, int, str, int], ...]
    uploads: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _listed(self.vertices, "vertices", str))
        object.__setattr__(self, "uploads", _listed(self.uploads, "uploads", str))
        if len(set(self.vertices)) != len(self.vertices) or not self.vertices:
            raise ValueError("vertices must be a non-empty list of unique names")
        known = set(self.vertices)
        links, used = [], set()
        for link in _listed(self.links, "links", (list, tuple)):
            if len(link) != 4:
                raise ValueError(f"link must be (a, port_a, b, port_b), got {link!r}")
            a, pa, b, pb = link
            # a name is known only as a str: an unhashable one is just unknown
            if not (isinstance(a, str) and a in known and isinstance(b, str) and b in known):
                raise ValueError(f"link {link!r} references an unknown vertex")
            if a == b:
                raise ValueError(f"link {link!r} joins a vertex to itself")
            pa, pb = _count(pa, "link port", 1, 3), _count(pb, "link port", 1, 3)
            for end in ((a, pa), (b, pb)):
                if end in used:
                    raise ValueError(f"port {end} is occupied by more than one link")
                used.add(end)
            links.append((a, pa, b, pb))
        object.__setattr__(self, "links", tuple(links))
        if len(set(self.uploads)) != len(self.uploads):
            raise ValueError("duplicate upload vertices")
        for v in self.uploads:
            if v not in known:
                raise ValueError(f"upload vertex {v!r} is not a lattice vertex")

    @classmethod
    def from_json_dict(cls, data: dict) -> "HexLatticeDescriptor":
        if not isinstance(data, dict):
            raise ValueError("lattice descriptor must be a JSON object")
        try:
            return cls(data["vertices"], data["links"], data.get("uploads", []))
        except KeyError as exc:
            raise ValueError(f"malformed lattice descriptor: missing {exc}") from exc


@dataclass(frozen=True)
class HexLayout:
    """Site-id assignment for a lattice descriptor.

    ``inner[v]`` lists the four control-site ids of vertex ``v`` in port
    order; ``occupant[(v, p)]`` is the id of the outer site seen from port
    ``p`` of vertex ``v`` (an upload site, a shared link site, or a dangling
    port site), in (vertex, port) order.  Link sites are the occupant of both ends.
    """

    inner: dict[str, tuple[int, int, int, int]]
    occupant: dict[tuple[str, int], int]
    sites: tuple[Site, ...]
    edges: tuple[tuple[int, int, int], ...]


def hex_lattice_layout(desc: HexLatticeDescriptor) -> HexLayout:
    """Deterministic site numbering for a lattice descriptor: a site's id is its list position.

    Inner quadruples come first, in vertex order; outer sites follow in (vertex, port) order.
    A link site is made at whichever of its ends comes first in that order and found from its
    far end at the other.  A port claimed by no link or upload gets a dangling site, so every
    vertex has its full Hadamard coupling pattern.  The layout is built once per descriptor
    object and kept on it; it is not to be mutated.
    """
    if "_layout" in vars(desc):
        return desc._layout
    vertices, size = desc.vertices, 4 * len(desc.vertices)
    # slot 4v + p is port p of the v-th vertex; a link site is made at its end in the lower slot
    first, second = np.sort(_link_slots(desc), axis=1).T
    made = np.ones(size, dtype=bool)
    made[second] = False
    outer = size - 1 + made.cumsum()  # the id of each slot's site, made in slot order
    outer[second] = outer[first]
    ports, uploads = [(v, p) for v in vertices for p in range(4)], set(desc.uploads)
    roles = ["upload" if p == 0 and v in uploads else "port" for v, p in ports]
    named = [f"{v}.up" if role == "upload" else f"{v}.p{p}" for (v, p), role in zip(ports, roles)]
    for slot, link in zip(first.tolist(), desc.links):
        named[slot] = "{}{}-{}{}".format(*link)
    kept = made.nonzero()[0].tolist()
    labels = [f"{v}.mu{i}" for v in vertices for i in range(4)] + [named[s] for s in kept]
    sites = _sites(labels, ["control"] * size + [roles[s] for s in kept])
    inner = np.arange(size).reshape(-1, 4)
    # 16 edges per vertex: inner site i to the site at port p, with sign HADAMARD_SIGNS[i][p]
    edges = np.broadcast_arrays(inner[:, :, None], outer.reshape(-1, 1, 4), HADAMARD_SIGNS)
    edges = tuple(map(tuple, np.stack(edges, -1).reshape(-1, 3).tolist()))
    occupant = dict(zip(ports, outer.tolist()))
    inner = dict(zip(vertices, map(tuple, inner.tolist())))
    layout = HexLayout(inner=inner, occupant=occupant, sites=sites, edges=edges)
    object.__setattr__(desc, "_layout", layout)  # on the frozen descriptor, not a field
    return layout


def _link_slots(desc: HexLatticeDescriptor) -> np.ndarray:
    """The slots ``4i + pa``, ``4j + pb`` of each link ``(a, pa, b, pb)`` from vertex i to j."""
    index = {v: i for i, v in enumerate(desc.vertices)}
    ends = [(4 * index[a] + pa, 4 * index[b] + pb) for a, pa, b, pb in desc.links]
    return np.array(ends, dtype=np.intp).reshape(-1, 2)


def build_hex_lattice(
    desc: HexLatticeDescriptor, params: SystemParams | None = None
) -> NetworkSpec:
    """Lattice of switching vertices joined by shared link cavities.

    Each vertex contributes 16 edges (4 inner sites x 4 ports with Hadamard
    signs).  Link sites are shared between two vertices but their on-site
    terms are counted once, because they are a single site of the returned
    spec.

    Parameters
    ----------
    desc : HexLatticeDescriptor
        Vertices, links, and upload assignments.
    params : SystemParams, optional
        Physical parameters; defaults to the resonant working point.

    Returns
    -------
    NetworkSpec
    """
    layout = hex_lattice_layout(desc)
    return NetworkSpec(sites=layout.sites, edges=layout.edges, params=params or SystemParams())


def build_single_excitation_hamiltonian(spec: NetworkSpec):
    """Nonzeros ``(rows, cols, values)`` of the real symmetric ``2M x 2M`` Hamiltonian of
    ``spec`` in the single-excitation sector: each element once, every diagonal element listed.

    ``omega_c`` on cavity rows, ``omega_c - delta`` on atom rows, ``g`` between each site's
    cavity and atom, ``sign * j`` between edge cavities, in ``O(M + edges)`` work and memory.
    A whole network's matrix is the one block of a one-block basis (``block_decompose``).
    """
    p, sites = spec.params, np.arange(spec.num_sites)
    k, l, sign = np.array(spec.edges, dtype=np.intp).reshape(-1, 3).T
    c, a, ck, cl = cavity_index(sites), atom_index(sites), cavity_index(k), cavity_index(l)
    rows = np.concatenate([c, a, c, a, ck, cl])
    cols = np.concatenate([c, a, a, c, cl, ck])
    on_site = np.repeat([p.omega_c, p.omega_a, p.g, p.g], spec.num_sites)
    values = np.concatenate([on_site, sign * p.j, sign * p.j])
    return rows, cols, values
