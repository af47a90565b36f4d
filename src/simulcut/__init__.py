"""simulcut: one vertex partition, near-optimal cuts for every graph at once.

Given several graphs (or r-uniform hypergraphs) on a shared vertex set, the
package produces a single partition with certified lower bounds on every
member's cut statistics, via seeded Monte-Carlo sampling with explicit
failure bounds or a deterministic conditional-expectation descent, plus an
exhaustive oracle that validates the guarantees at small scale.
"""

from .model import (
    Assignment,
    Bound,
    Constraint,
    CutReport,
    EpsilonRangeError,
    GraphFamily,
    HypergraphFamily,
    InstanceError,
    edwards_bound,
    epsilon_cap,
    partition_counts,
    rainbow_count,
)
from .estimator import (
    UNDECIDED,
    DegreePreconditionError,
    EstimatorBudgetError,
    EventSpec,
    conditional_edge_prob,
    conditional_joint_prob,
    conditional_moments,
    estimator_value,
)
from .guarantee import Guarantee, evaluate, resolve
from .mc import McResult, mc_partition, random_assignment, substream
from .derandomize import DerandResult, DescentStep, derandomize
from .oracle import (
    SizeLimitError,
    enumerate_best,
    max_cut,
    moments_by_completion,
)

__version__ = "0.1.0"
