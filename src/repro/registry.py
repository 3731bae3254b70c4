"""String registries for problems and strategies.

The service layer (and any user who would rather not import from six
submodules) refers to problems and strategies by short names::

    >>> import repro
    >>> problem = repro.get_problem("power_amplifier")
    >>> strategy_cls = repro.get_strategy("mfbo")

Problem names are normalized (case-insensitive, ``_`` and ``-``
interchangeable) and match each class's reporting :attr:`Problem.name`,
so a run vault entry's recorded problem name resolves back to a
constructible class. Targets are ``"module.path:ClassName"`` strings,
resolved lazily — registering a problem or strategy does not import its
module (strategies import session machinery for their ``run()``, so an
eager import would be a cycle).

Strategy ids are the ``strategy`` key of every checkpoint: session
resume and the run vault resolve them through :func:`get_strategy`, so a
strategy registered here is resumable from checkpoints and vault run
directories.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .problems.base import Problem

__all__ = [
    "register_problem",
    "get_problem",
    "list_problems",
    "register_strategy",
    "get_strategy",
    "list_strategies",
]

#: canonical problem name -> "module.path:ClassName"
_PROBLEM_REGISTRY: dict[str, str] = {
    "pedagogical": "repro.problems.synthetic:PedagogicalProblem",
    "forrester": "repro.problems.synthetic:ForresterProblem",
    "currin": "repro.problems.synthetic:CurrinProblem",
    "park": "repro.problems.synthetic:ParkProblem",
    "branin": "repro.problems.synthetic:BraninProblem",
    "hartmann3": "repro.problems.synthetic:Hartmann3Problem",
    "latency": "repro.problems.synthetic:LatencyProblem",
    "gardner": "repro.problems.constrained:GardnerProblem",
    "constrained-branin": "repro.problems.constrained:ConstrainedBraninProblem",
    "zdt1": "repro.problems.multi:ZDT1Problem",
    "zdt1-mf": "repro.problems.multi:ZDT1Problem",
    "power-amplifier": "repro.circuits.power_amplifier:PowerAmplifierProblem",
    "pareto-pa": "repro.circuits.power_amplifier:ParetoPowerAmplifierProblem",
    "charge-pump": "repro.circuits.charge_pump:ChargePumpProblem",
    "two-stage-opamp": "repro.circuits.opamp:OpAmpProblem",
    "pareto-opamp": "repro.circuits.opamp:ParetoOpAmpProblem",
    "interconnect-ladder": "repro.circuits.ladder:InterconnectLadderProblem",
}

#: convenience aliases -> canonical names
_PROBLEM_ALIASES: dict[str, str] = {
    "pa": "power-amplifier",
    "opamp": "two-stage-opamp",
    "ladder": "interconnect-ladder",
}

#: strategy id (the checkpoint's ``strategy`` key) -> "module.path:ClassName"
_STRATEGY_REGISTRY: dict[str, str] = {
    "mfbo": "repro.core.mfbo:MFBOptimizer",
    "weibo": "repro.baselines.weibo:WEIBO",
    "gaspad": "repro.baselines.gaspad:GASPAD",
    "de": "repro.baselines.de_opt:DEOptimizer",
    "random_search": "repro.baselines.random_opt:RandomSearchOptimizer",
    "momfbo": "repro.moo.optimizer:MOMFBOptimizer",
}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def _resolve(target: str) -> type:
    """Import the class a ``"module.path:ClassName"`` target names."""
    module_name, _, class_name = target.partition(":")
    return getattr(importlib.import_module(module_name), class_name)


def register_problem(name: str, target: str) -> None:
    """Register a problem class under a short name.

    ``target`` is a ``"module.path:ClassName"`` string; the class must be
    constructible as ``cls(**kwargs)``. Registration makes the problem
    available to :func:`get_problem`, ``repro.open_session`` and the
    session server's ``create`` operation.
    """
    _PROBLEM_REGISTRY[_normalize(name)] = target


def get_problem(name: str, **kwargs) -> Problem:
    """Instantiate a registered problem by name.

    >>> import repro
    >>> repro.get_problem("forrester").dim
    1
    """
    key = _normalize(name)
    key = _PROBLEM_ALIASES.get(key, key)
    try:
        target = _PROBLEM_REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; registered: {list_problems()}"
        ) from None
    return _resolve(target)(**kwargs)


def list_problems() -> list[str]:
    """Sorted canonical names accepted by :func:`get_problem`."""
    return sorted(_PROBLEM_REGISTRY)


def register_strategy(strategy_id: str, target: str) -> None:
    """Register a custom strategy class for :func:`get_strategy` and
    checkpoint resume.

    ``target`` is a ``"module.path:ClassName"`` string; the class must
    accept ``(problem, **config)`` and implement the Strategy protocol.
    """
    _STRATEGY_REGISTRY[strategy_id] = target


def get_strategy(name: str) -> type:
    """Return a registered strategy class by its id.

    The built-in ids are ``mfbo``, ``weibo``, ``gaspad``, ``de``,
    ``random_search`` and ``momfbo``; custom strategies join via
    :func:`register_strategy` (also exported as
    :func:`repro.session.register_strategy`).
    """
    try:
        target = _STRATEGY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy id {name!r}; registered: {list_strategies()}"
        ) from None
    return _resolve(target)


def list_strategies() -> list[str]:
    """Sorted ids accepted by :func:`get_strategy`."""
    return sorted(_STRATEGY_REGISTRY)
