"""Shared harness for repeated-run algorithm comparisons.

Reproduces the paper's evaluation protocol: every algorithm is run
``n_repeats`` times with independent seeds on the same problem, and the
table reports mean / median / best / worst objective plus the average
number of (equivalent) simulations and the success count — exactly the
row structure of Tables 1 and 2.

Each run is a thin driver over an ask/tell
:class:`repro.session.OptimizationSession`, so an
:class:`repro.session.Evaluator` (e.g. a process pool) and a suggestion
batch size can be injected to parallelize the simulations of every
algorithm in a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.result import BOResult

__all__ = [
    "AlgorithmSpec",
    "ComparisonResult",
    "compare_algorithms",
    "run_strategy",
]


def run_strategy(optimizer, evaluator=None, batch_size: int = 1) -> BOResult:
    """Run one optimizer to completion and return its :class:`BOResult`.

    Ask/tell strategies are driven through an
    :class:`repro.session.OptimizationSession` (honouring ``evaluator``
    and ``batch_size``); anything else falls back to its own blocking
    ``run()`` so third-party optimizers keep working.
    """
    if callable(getattr(optimizer, "suggest", None)) and callable(
        getattr(optimizer, "observe", None)
    ):
        from ..session.session import OptimizationSession

        # The with-statement closes session-owned evaluators; a caller
        # supplied evaluator is shared across runs and stays open.
        with OptimizationSession(optimizer, evaluator=evaluator) as session:
            return session.run(batch_size=batch_size)
    return optimizer.run()


@dataclass
class AlgorithmSpec:
    """One column of a comparison table.

    ``factory(problem, seed)`` must build a ready-to-run optimizer whose
    ``run()`` returns a :class:`repro.core.BOResult`.
    """

    name: str
    factory: Callable


@dataclass
class ComparisonResult:
    """Aggregated repeated-run statistics for one algorithm."""

    name: str
    results: list[BOResult] = field(default_factory=list)

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.best_objective for r in self.results])

    @property
    def n_success(self) -> int:
        """Runs that ended with a feasible design."""
        return int(sum(r.feasible for r in self.results))

    @property
    def n_repeats(self) -> int:
        return len(self.results)

    @property
    def avg_equivalent_sims(self) -> float:
        return float(np.mean([r.equivalent_cost for r in self.results]))

    @property
    def avg_n_low(self) -> float:
        return float(np.mean([r.n_low for r in self.results]))

    @property
    def avg_n_high(self) -> float:
        return float(np.mean([r.n_high for r in self.results]))

    def objective_stats(self) -> dict:
        """mean / median / best / worst of the best objectives."""
        values = self.objectives
        return {
            "mean": float(np.mean(values)),
            "median": float(np.median(values)),
            "best": float(np.min(values)),
            "worst": float(np.max(values)),
        }

    def metric_stats(self, key: str) -> dict:
        """Statistics of a named metric of the best designs.

        Runs whose best design lacks the metric are excluded, and the
        ``best_run`` cell is taken from the best objective *among the
        runs that report the metric* so the index stays aligned with the
        filtered values.
        """
        with_metric = [r for r in self.results if key in r.metrics]
        if not with_metric:
            raise KeyError(key)
        values = np.array([r.metrics[key] for r in with_metric])
        objectives = np.array([r.best_objective for r in with_metric])
        return {
            "mean": float(np.mean(values)),
            "median": float(np.median(values)),
            "best_run": float(values[int(np.argmin(objectives))]),
        }

    def best_run(self) -> BOResult:
        return self.results[int(np.argmin(self.objectives))]


def compare_algorithms(
    problem_factory: Callable,
    specs: Sequence[AlgorithmSpec],
    n_repeats: int,
    base_seed: int = 2019,
    verbose: bool = False,
    evaluator=None,
    batch_size: int = 1,
) -> dict[str, ComparisonResult]:
    """Run every algorithm ``n_repeats`` times on fresh problem instances.

    Seeds are derived per (algorithm, repeat) so each algorithm sees the
    same stream of repeat seeds — the paper's "run N times to average out
    the random fluctuations". ``evaluator``/``batch_size`` are forwarded
    to the per-run :func:`run_strategy` session driver (e.g. pass a
    :class:`repro.session.AsyncEvaluator` and ``batch_size > 1`` to
    simulate suggestion batches in parallel).
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    comparison: dict[str, ComparisonResult] = {}
    for spec in specs:
        aggregated = ComparisonResult(name=spec.name)
        for repeat in range(n_repeats):
            seed = base_seed + 7919 * repeat
            problem = problem_factory()
            optimizer = spec.factory(problem, seed)
            result = run_strategy(
                optimizer, evaluator=evaluator, batch_size=batch_size
            )
            aggregated.results.append(result)
            if verbose:
                print(
                    f"[{spec.name}] repeat {repeat + 1}/{n_repeats}: "
                    f"objective={result.best_objective:.4g} "
                    f"feasible={result.feasible} "
                    f"cost={result.equivalent_cost:.1f}"
                )
        comparison[spec.name] = aggregated
    return comparison


def format_table(
    rows: dict[str, dict[str, float]],
    column_order: Sequence[str],
    title: str = "",
    float_format: str = "{:.2f}",
) -> str:
    """Render ``{row_label: {column: value}}`` as an aligned text table."""
    header = ["Algo"] + list(column_order)
    lines = []
    if title:
        lines.append(title)
    body = []
    for label, cells in rows.items():
        rendered = [label]
        for column in column_order:
            value = cells.get(column, "")
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        body.append(rendered)
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body))
        for i in range(len(header))
    ]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines.append(fmt(header))
    lines.append(fmt(["-" * w for w in widths]))
    lines += [fmt(r) for r in body]
    return "\n".join(lines)
