"""The three paper-artifact workloads: build, drive, check.

Each workload is one optimization run of a paper artifact at the
``Scale.SMOKE`` knobs, driven from this process:

* ``pa-tab1`` — Table 1: :class:`MFBOptimizer` on the class-E power
  amplifier, serial :meth:`OptimizationSession.run`.
* ``opamp-served`` — Table 3 served: :class:`MFBOptimizer` on the
  two-stage op-amp through :meth:`RunVault.open_session`
  (``checkpoint_every=1``) over a two-worker :class:`AsyncEvaluator`,
  ordered-barrier ``run(batch_size=2)``.
* ``pareto-opamp`` — Table 5: :class:`MOMFBOptimizer` with MC-EHVI on
  the three-objective op-amp, serial.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    budget: float
    init: tuple[int, int]
    batch_size: int = 1
    served: bool = False
    multi_objective: bool = False
    #: layers whose ``.calls`` must be nonzero on this workload (every
    #: other layer span must read zero).
    layers: tuple[str, ...] = ()


_MODEL_LAYERS = (
    "gp.fit", "gp.predict", "mf.nargp_fit", "mf.nargp_predict",
    "optim.msp", "core.suggest", "core.observe", "core.select",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pa-tab1",
            "Table 1 PA: the headline artifact and the only one bound by "
            "the transient simulator",
            budget=13.0,
            init=(10, 5),
            layers=_MODEL_LAYERS + (
                "spice.transient", "spice.newton", "spice.assemble",
                "spice.dc", "circuits.eval", "acquisition.wei",
            ),
        ),
        Workload(
            "opamp-served",
            "Table 3 op-amp served through the vault and the 2-worker "
            "farm: surrogate-bound, the only fsync and dispatch load",
            budget=26.0,
            init=(12, 5),
            batch_size=2,
            served=True,
            layers=_MODEL_LAYERS + (
                "gp.add_points", "acquisition.wei", "session.farm",
                "service.vault.observe", "service.vault.save",
            ),
        ),
        Workload(
            "pareto-opamp",
            "Table 5 three-objective op-amp with MC-EHVI: the only "
            "multi-objective acquisition load",
            budget=7.5,
            init=(10, 4),
            multi_objective=True,
            layers=_MODEL_LAYERS + (
                "spice.newton", "spice.assemble", "spice.dc", "spice.ac",
                "circuits.eval", "moo.ehvi",
            ),
        ),
    )
}

#: The artifact seeds one run cycles through. A BO trajectory's cost
#: depends on its seed (the same PA budget takes 37 or 56 simulations),
#: so every run executes the same panel and ``--seed`` only rotates the
#: order; ``--panel-base`` selects a held-out panel for claims.
PANEL_SIZE = 2
DEFAULT_PANEL_BASE = 2019


def panel_seeds(base: int, seed: int) -> list[int]:
    """The panel in the order ``seed`` rotates it to (``seed`` first if
    it is a panel seed)."""
    return [base + (seed - base + j) % PANEL_SIZE for j in range(PANEL_SIZE)]


@dataclass
class Prepared:
    """One constructed run: problem, strategy, session (+ vault, farm)."""

    workload: Workload
    seed: int
    problem: object
    strategy: object
    session: object
    vault: object = None
    vault_root: Path | None = None
    ask_s: list = field(default_factory=list)

    @property
    def n_init(self) -> int:
        return self.strategy.n_init_low + self.strategy.n_init_high

    def close(self) -> None:
        self.session.close()

    def discard(self) -> None:
        if self.vault_root is not None:
            shutil.rmtree(self.vault_root, ignore_errors=True)


def make_problem(name: str):
    from repro.circuits.opamp import OpAmpProblem, ParetoOpAmpProblem
    from repro.circuits.power_amplifier import PowerAmplifierProblem

    problems = {
        "pa-tab1": PowerAmplifierProblem,
        "opamp-served": OpAmpProblem,
        "pareto-opamp": ParetoOpAmpProblem,
    }
    return problems[name]()


def prepare(name: str, seed: int, work_dir: Path) -> Prepared:
    """Construct problem, strategy and session (vault run and farm too)."""
    from repro.core.mfbo import MFBOptimizer
    from repro.experiments.scale import SMOKE
    from repro.session.session import OptimizationSession

    workload = WORKLOADS[name]
    problem = make_problem(name)
    knobs = dict(
        budget=workload.budget,
        n_init_low=workload.init[0],
        n_init_high=workload.init[1],
        n_mc_samples=SMOKE.n_mc_samples,
        n_restarts=SMOKE.n_restarts,
        msp_starts=SMOKE.msp_starts,
        msp_polish=SMOKE.msp_polish,
        gp_max_opt_iter=SMOKE.gp_max_opt_iter,
        seed=seed,
    )
    if name == "pa-tab1":
        strategy = MFBOptimizer(problem, **knobs)
        return Prepared(workload, seed, problem, strategy,
                        OptimizationSession(strategy))
    if name == "opamp-served":
        from repro.service.vault import RunVault
        from repro.session.farm import AsyncEvaluator

        strategy = MFBOptimizer(problem, **knobs)
        work_dir.mkdir(parents=True, exist_ok=True)
        root = work_dir / f"vault-{seed}-{time.monotonic_ns()}"
        vault = RunVault(root)
        session = vault.open_session(
            problem,
            strategy,
            evaluator=AsyncEvaluator(max_workers=2),
            checkpoint_every=1,
            own_evaluator=True,
        )
        return Prepared(workload, seed, problem, strategy, session,
                        vault=vault, vault_root=root)
    from repro.moo.optimizer import MOMFBOptimizer

    strategy = MOMFBOptimizer(
        problem,
        acquisition="ehvi",
        ehvi_mc_samples=SMOKE.tab5_ehvi_mc,
        **knobs,
    )
    return Prepared(workload, seed, problem, strategy,
                    OptimizationSession(strategy))


def time_asks(prep: Prepared) -> None:
    """Record the latency of every model-based ``session.suggest``.

    A model-based ask is one made once the initial design is observed.
    The session's driving loop looks ``suggest`` up on the instance, so
    shadowing it there times exactly the asks the loop makes.
    """
    session, inner = prep.session, prep.session.suggest
    history = prep.strategy.history

    def suggest(k: int = 1):
        model_based = len(history) >= prep.n_init
        start = time.perf_counter()
        batch = inner(k)
        if model_based:
            prep.ask_s.append(time.perf_counter() - start)
        return batch

    session.suggest = suggest


def drive(prep: Prepared):
    """First ask to final result; returns ``(wall_s, result)``."""
    start = time.perf_counter()
    result = prep.session.run(batch_size=prep.workload.batch_size)
    return time.perf_counter() - start, result


def outputs(prep: Prepared, result) -> dict:
    """Deterministic outputs of a finished run (trajectory fingerprints)."""
    history = prep.strategy.history
    records = history.records
    post_init = records[prep.n_init:]
    out = {
        "seed": prep.seed,
        "best_objective": float(result.best_objective),
        "n_low": history.n_evaluations("low"),
        "n_high": history.n_evaluations("high"),
        "n_failed": sum(int(r.evaluation.failed) for r in records),
        "n_sims": len(records),
        "equivalent_cost": float(history.total_cost),
        "high_frac": (
            sum(r.fidelity == "high" for r in post_init) / len(post_init)
            if post_init else 0.0
        ),
    }
    if prep.workload.multi_objective:
        trace = prep.strategy.hypervolume_trace()
        out["hypervolume"] = float(trace[-1, 1]) if len(trace) else 0.0
    if prep.vault is not None:
        run_dir = prep.vault.run_dir(prep.session.run_id)
        out["vault_bytes"] = sum(
            (run_dir / name).stat().st_size
            for name in ("events.jsonl", "checkpoint.json")
        )
        out["vault_events"] = len(prep.vault.read_events(prep.session.run_id))
    return out


def check(prep: Prepared, result, out: dict, resimulate: bool) -> list[str]:
    """Output checks; returns the failed ones (empty: correct)."""
    failures = []
    workload = prep.workload
    budget = prep.strategy.budget
    if not out["equivalent_cost"] <= budget + 1e-9:
        failures.append(
            f"equivalent_cost {out['equivalent_cost']} exceeds budget {budget}"
        )
    for record in prep.strategy.history.records:
        values = [record.evaluation.objective]
        values += list(getattr(record.evaluation, "objectives", ()))
        if not all(math.isfinite(v) for v in values):
            failures.append(f"non-finite objective {values}")
            break
    if not workload.multi_objective and not result.feasible:
        failures.append("best design is infeasible")
    if workload.multi_objective and not out["hypervolume"] > 0:
        failures.append(f"hypervolume {out['hypervolume']} is not > 0")
    if workload.served and out["vault_events"] != out["n_sims"]:
        failures.append(
            f"vault holds {out['vault_events']} evaluation events for "
            f"{out['n_sims']} history records"
        )
    if resimulate:
        failures += _resimulate(prep)
    return failures


def _resimulate(prep: Prepared) -> list[str]:
    """Re-simulate the best design in-process at high fidelity."""
    strategy, problem = prep.strategy, prep.problem
    if prep.workload.multi_objective:
        entries = strategy.archive.front_entries()
        if not entries:
            return ["empty Pareto archive"]
        best = min(entries, key=lambda e: tuple(e.objectives))
        x_unit, recorded = best.x_unit, np.asarray(best.objectives)
        fresh = problem.evaluate_unit(x_unit, problem.highest_fidelity)
        value = np.asarray(fresh.objectives)
    else:
        best = strategy.history.incumbent(problem.highest_fidelity)
        x_unit, recorded = best.x_unit, best.evaluation.objective
        value = problem.evaluate_unit(
            x_unit, problem.highest_fidelity
        ).objective
    if not np.array_equal(value, recorded):
        return [f"re-simulated best objective {value} != recorded {recorded}"]
    return []
