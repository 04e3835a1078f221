"""Perfect routing of single excitations through cavity-atom networks.

The package builds single-excitation Hamiltonians for three topologies
(diamond chain, four-port switch, honeycomb-style lattice), block-decomposes
them into invariant collective subspaces, evolves states exactly by
eigendecomposition, locates transfer-time peaks, and runs routing schedules
built from free evolution windows and local atomic phase flips.
"""

from . import closed_form, collective, evolution, network, routing
from .closed_form import *  # noqa: F403
from .collective import *  # noqa: F403
from .evolution import *  # noqa: F403
from .network import *  # noqa: F403
from .routing import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *closed_form.__all__,
    *collective.__all__,
    *evolution.__all__,
    *network.__all__,
    *routing.__all__,
    "__version__",
]
