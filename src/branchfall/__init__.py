"""branchfall: open-system wave packet dynamics and stochastic branch selection.

The package simulates a single 1D degree of freedom under position
decoherence, decomposes the evolving state into phase-space branches with a
coherent-state window POVM, extracts Born-weighted collapse trajectories
(effective jumps, guidance-equation paths, or spontaneous localization hits),
and checks how long those trajectories shadow the classical flow.
"""

from . import branching, dynamics, ehrenfest, errors, mechanisms, pointer, qstate, reduction
from .errors import *  # noqa: F401,F403
from .qstate import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .pointer import *  # noqa: F401,F403
from .branching import *  # noqa: F401,F403
from .mechanisms import *  # noqa: F401,F403
from .ehrenfest import *  # noqa: F401,F403
from .reduction import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is its public list, re-exported here as it stands
__all__ = ["__version__"] + [
    name
    for module in (errors, qstate, dynamics, pointer, branching, mechanisms, ehrenfest, reduction)
    for name in module.__all__
]
