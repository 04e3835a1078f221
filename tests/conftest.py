"""Pins the OpenBLAS kernel family before numpy loads.

The golden bytes (``golden/cli.json``) and the pinned transfer-time searches
depend on which OpenBLAS kernel runs: AVX-512 kernels round some sums
differently from AVX2 ones.  AVX2 (``Haswell``) kernels run on any x86-64
machine with AVX2, every current CI runner included, so the data is generated
and checked with them; other architectures ignore the variable.  A kernel
already named in the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")

from hypothesis import strategies as st  # noqa: E402  (after the kernel pin)


def pytest_report_header(config):
    # a golden mismatch on another machine starts with these two facts
    import numpy

    return f"numpy {numpy.__version__}, OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']}"


def dense_hamiltonian(spec):
    """The dense H of ``spec``, scattered from the nonzeros its builder lists."""
    import numpy

    from cavity_route import build_single_excitation_hamiltonian

    rows, cols, values = build_single_excitation_hamiltonian(spec)
    h = numpy.zeros((spec.dim, spec.dim))
    h[rows, cols] = values
    return h


def brick_wall(rows, cols):
    """Vertices and links of the benchmark's brick-wall lattice: ``(r, c)-(r, c+1)`` joins ports 1
    and 2, and ``(r, c)-(r+1, c)`` joins the two port-3s when ``r + c`` is even."""
    vertices = [f"r{r}c{c}" for r in range(rows) for c in range(cols)]
    links = [(f"r{r}c{c}", 1, f"r{r}c{c + 1}", 2) for r in range(rows) for c in range(cols - 1)]
    links += [
        (f"r{r}c{c}", 3, f"r{r + 1}c{c}", 3)
        for r in range(rows - 1)
        for c in range(cols)
        if (r + c) % 2 == 0
    ]
    return vertices, links


@st.composite
def lattices(draw):
    """1-7 vertices named with braces and brackets, links between free ports in either
    orientation (a vertex pair may share several), uploads on a random subset."""
    from cavity_route import HexLatticeDescriptor

    names = st.text(alphabet="ab{}[]", min_size=1, max_size=3)
    vertices = draw(st.lists(names, min_size=1, max_size=7, unique=True))
    ends = draw(st.permutations([(v, p) for v in vertices for p in (1, 2, 3)]))
    pairs = zip(ends[0::2], ends[1::2])
    links = [(*x, *y) for x, y in pairs if x[0] != y[0] and draw(st.booleans())]
    uploads = [v for v in draw(st.permutations(vertices)) if draw(st.booleans())]
    return HexLatticeDescriptor(tuple(vertices), tuple(links), tuple(uploads))
