"""Multi-objective multi-fidelity optimization subsystem.

Layers a Pareto-front workflow on top of the existing NARGP/AR1 fusion
models: constrained-domination archive (:mod:`.pareto`), exact hypervolume
indicators (:mod:`.hypervolume`), EHVI and ParEGO acquisitions
(:mod:`.acquisition`), and the :class:`MOMFBOptimizer` ask/tell strategy
(:mod:`.optimizer`).
"""

from .acquisition import (
    ExpectedHypervolumeImprovement,
    ParEGOScalarizer,
    draw_simplex_weights,
    ehvi_2d,
)
from .hypervolume import (
    exclusive_hypervolume,
    hypervolume,
    hypervolume_contributions,
)
from .optimizer import MOMFBOptimizer
from .pareto import (
    ParetoArchive,
    constrained_non_dominated_mask,
    dominates,
    non_dominated_mask,
    non_dominated_sort,
)

__all__ = [
    "MOMFBOptimizer",
    "ParetoArchive",
    "ExpectedHypervolumeImprovement",
    "ParEGOScalarizer",
    "draw_simplex_weights",
    "ehvi_2d",
    "hypervolume",
    "exclusive_hypervolume",
    "hypervolume_contributions",
    "dominates",
    "non_dominated_mask",
    "constrained_non_dominated_mask",
    "non_dominated_sort",
]
