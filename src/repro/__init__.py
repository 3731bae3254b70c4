"""repro — Multi-fidelity Bayesian optimization for analog circuit synthesis.

Reproduction of Zhang et al., "An Efficient Multi-fidelity Bayesian
Optimization Approach for Analog Circuit Synthesis", DAC 2019.

Entry points
------------
- :func:`repro.open_session` — build an ask/tell session from registry
  names (``repro.open_session("power_amplifier", "mfbo", budget=40)``),
  optionally persisted in a crash-safe run vault (``vault=...``).
- :func:`repro.connect` — client for a ``python -m repro.service serve``
  session server; returns :class:`repro.RemoteSession` handles that
  speak the same ask/tell protocol over TCP.
- :func:`repro.get_problem` / :func:`repro.get_strategy` and their
  ``list_*`` companions — the name registries behind both.

Substrate highlights
--------------------
- :class:`repro.MFBOptimizer` — the paper's Algorithm 1, as an ask/tell
  strategy; :class:`repro.MOMFBOptimizer` its multi-objective sibling.
- :class:`repro.OptimizationSession` — drives any strategy with an
  injectable evaluator (serial or process-pool), with JSON
  checkpoint/resume.
- :class:`repro.WEIBO` / :class:`repro.GASPAD` /
  :class:`repro.DEOptimizer` / :class:`repro.RandomSearchOptimizer` —
  the compared methods, on the same Strategy protocol.
- :class:`repro.NARGP` — nonlinear two-fidelity GP fusion (§3);
  :class:`repro.GPR` — exact GP regression substrate (§2.3).
- :mod:`repro.circuits` — power-amplifier, charge-pump and two-stage
  op-amp testbenches; :mod:`repro.spice` — a small MNA simulator.
- :mod:`repro.service` — optimization as a service: persistent
  :class:`repro.RunVault`, TCP session server, wire client.

Submodules import lazily (PEP 562): ``import repro`` stays cheap, and
heavy substrate (spice, GP code) only loads when first touched.
"""

from typing import TYPE_CHECKING

__version__ = "0.3.0"

# Each public name lives in exactly one submodule; __getattr__ imports
# that submodule on first attribute access.
_EXPORTS = {
    # entry points
    "open_session": "api",
    "connect": "api",
    "get_problem": "registry",
    "get_strategy": "registry",
    "list_problems": "registry",
    "list_strategies": "registry",
    "register_problem": "registry",
    # strategies
    "MFBOptimizer": "core",
    "BOResult": "core",
    "FidelitySelector": "core",
    "History": "core",
    "MOMFBOptimizer": "moo",
    "ParetoArchive": "moo",
    "ExpectedHypervolumeImprovement": "moo",
    "ParEGOScalarizer": "moo",
    "hypervolume": "moo",
    "WEIBO": "baselines",
    "GASPAD": "baselines",
    "DEOptimizer": "baselines",
    "RandomSearchOptimizer": "baselines",
    # sessions
    "OptimizationSession": "session",
    "Strategy": "session",
    "Suggestion": "session",
    "Evaluator": "session",
    "SerialEvaluator": "session",
    "AsyncEvaluator": "session",
    "FaultInjectingEvaluator": "session",
    "FaultSpec": "session",
    "CheckpointError": "session",
    # service
    "RunVault": "service",
    "RunInfo": "service",
    "VaultSession": "service",
    "VaultError": "service",
    "SessionServer": "service",
    "ServiceClient": "service",
    "ServiceError": "service",
    "RemoteSession": "service",
    # surrogates + inner optimizers
    "NARGP": "mf",
    "AR1": "mf",
    "GPR": "gp",
    "MSPOptimizer": "optim",
    "RandomSearch": "optim",
    "DifferentialEvolution": "optim",
    "ExpectedImprovement": "acquisition",
    "WeightedEI": "acquisition",
    "LCB": "acquisition",
    "ViolationAcquisition": "acquisition",
    # problems
    "Problem": "problems",
    "Evaluation": "problems",
    "FailedEvaluation": "problems",
    "MultiObjectiveProblem": "problems",
    "MultiObjectiveEvaluation": "problems",
    "FIDELITY_LOW": "problems",
    "FIDELITY_HIGH": "problems",
    # design space
    "DesignSpace": "design",
    "Variable": "design",
}

#: Submodules reachable as ``repro.<name>`` without an explicit import.
_SUBMODULES = frozenset(
    {
        "acquisition",
        "api",
        "baselines",
        "circuits",
        "core",
        "design",
        "devtools",
        "experiments",
        "gp",
        "mf",
        "moo",
        "obs",
        "optim",
        "problems",
        "registry",
        "service",
        "session",
        "spice",
    }
)

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    import importlib

    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value  # cache: next access skips __getattr__
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))


if TYPE_CHECKING:  # pragma: no cover - static analysis sees eager imports
    from .acquisition import (
        LCB,
        ExpectedImprovement,
        ViolationAcquisition,
        WeightedEI,
    )
    from .api import connect, open_session
    from .baselines import GASPAD, WEIBO, DEOptimizer, RandomSearchOptimizer
    from .core import BOResult, FidelitySelector, History, MFBOptimizer
    from .design import DesignSpace, Variable
    from .gp import GPR
    from .mf import AR1, NARGP
    from .moo import (
        ExpectedHypervolumeImprovement,
        MOMFBOptimizer,
        ParEGOScalarizer,
        ParetoArchive,
        hypervolume,
    )
    from .optim import DifferentialEvolution, MSPOptimizer, RandomSearch
    from .problems import (
        FIDELITY_HIGH,
        FIDELITY_LOW,
        Evaluation,
        FailedEvaluation,
        MultiObjectiveEvaluation,
        MultiObjectiveProblem,
        Problem,
    )
    from .registry import (
        get_problem,
        get_strategy,
        list_problems,
        list_strategies,
        register_problem,
    )
    from .service import (
        RemoteSession,
        RunInfo,
        RunVault,
        ServiceClient,
        ServiceError,
        SessionServer,
        VaultError,
        VaultSession,
    )
    from .session import (
        AsyncEvaluator,
        CheckpointError,
        Evaluator,
        FaultInjectingEvaluator,
        FaultSpec,
        OptimizationSession,
        SerialEvaluator,
        Strategy,
        Suggestion,
    )
