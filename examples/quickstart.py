"""Quickstart: multi-fidelity Bayesian optimization in ~30 lines.

Optimizes the classic Forrester function pair — an expensive "high
fidelity" and a cheap biased "low fidelity" — with the paper's
multi-fidelity BO (Algorithm 1) and compares against single-fidelity BO
(WEIBO) at the same equivalent-simulation budget.

Run:  python examples/quickstart.py

Migrating from the legacy ``run()`` API to sessions
---------------------------------------------------
``MFBOptimizer.run()`` still works and is what this example uses — it is
now a thin wrapper over the ask/tell session API, producing bit-for-bit
the same trajectory. The mapping is:

===============================================  ==========================
legacy                                           session equivalent
===============================================  ==========================
``MFBOptimizer(problem, ...).run()``             ``OptimizationSession(MFBOptimizer(problem, ...)).run()``
``optimizer.history`` during ``callback``        ``session.history`` (same object)
blocking loop, serial simulations                ``session.run(batch_size=k)`` with an ``AsyncEvaluator``
no pause/resume                                  ``session.save(path)`` / ``OptimizationSession.resume(path, problem)``
===============================================  ==========================

See ``examples/ask_tell.py`` for driving the suggest/observe loop
yourself (external simulators, parallel batches, checkpointing).
"""

from repro import WEIBO, MFBOptimizer
from repro.problems import ForresterProblem


def main(seed: int = 0) -> None:
    budget = 15.0  # equivalent high-fidelity simulations

    mf_result = MFBOptimizer(
        ForresterProblem(),
        budget=budget,
        n_init_low=8,
        n_init_high=3,
        seed=seed,
    ).run()

    sf_result = WEIBO(
        ForresterProblem(),
        budget=int(budget),
        n_init=5,
        seed=seed,
    ).run()

    print("Forrester function, true minimum f(x*) = -6.0207 at x* = 0.7572")
    print(
        f"  multi-fidelity BO : f = {mf_result.best_objective:+.4f} at "
        f"x = {mf_result.best_x[0]:.4f}  "
        f"({mf_result.n_low} coarse + {mf_result.n_high} fine sims, "
        f"{mf_result.equivalent_cost:.1f} equivalent)"
    )
    print(
        f"  single-fidelity BO: f = {sf_result.best_objective:+.4f} at "
        f"x = {sf_result.best_x[0]:.4f}  "
        f"({sf_result.n_high} fine sims)"
    )
    gap_mf = abs(mf_result.best_objective - (-6.0207))
    gap_sf = abs(sf_result.best_objective - (-6.0207))
    print(f"  optimality gap: MF {gap_mf:.4f} vs SF {gap_sf:.4f}")


if __name__ == "__main__":
    main()
