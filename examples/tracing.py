"""Tracing an instrumented optimization run, end to end.

A small slice of the paper's Table 1 setup — the class-E power
amplifier optimized by the multi-fidelity strategy over an async
two-worker evaluator farm — with span tracing enabled. Every layer
contributes spans to one trace file:

* ``experiment.tab1-slice`` — the root span opened here;
* ``strategy.suggest`` / ``strategy.observe`` — the ask/tell halves,
  with ``gp.fit`` / ``nargp.fit`` nested under the suggest path;
* ``farm.dispatch`` (client side) and ``farm.evaluate`` (inside the
  worker *processes* — note the differing ``pid`` fields), linked into
  the same trace through the submit payload.

Afterwards the script renders the per-span latency table in-process —
the same table ``python -m repro.obs summarize trace.jsonl`` prints.

Run:  python examples/tracing.py [trace.jsonl]
"""

import sys
import tempfile
from pathlib import Path

from repro import AsyncEvaluator, MFBOptimizer, OptimizationSession
from repro.circuits.power_amplifier import PowerAmplifierProblem
from repro.obs import span, tracing
from repro.obs.cli import load_spans, render_table, summarize_rows


def main() -> None:
    if len(sys.argv) > 1:
        trace_path = Path(sys.argv[1])
    else:
        trace_path = (
            Path(tempfile.mkdtemp(prefix="repro-trace-")) / "trace.jsonl"
        )

    problem = PowerAmplifierProblem()
    strategy = MFBOptimizer(
        problem,
        budget=9.0,
        n_init_low=6,
        n_init_high=3,
        n_mc_samples=6,
        n_restarts=1,
        msp_starts=20,
        msp_polish=1,
        gp_max_opt_iter=25,
        seed=2019,
    )

    with tracing(str(trace_path)):
        with span("experiment.tab1-slice", seed=2019):
            with AsyncEvaluator(max_workers=2) as evaluator:
                session = OptimizationSession(strategy, evaluator)
                result = session.run_async(batch_size=2)

    print(f"best objective : {result.best_objective:.4f}")
    print(f"trace file     : {trace_path}")
    print()
    rows = summarize_rows(load_spans(str(trace_path)))
    print(render_table(rows))
    print()
    print(f"(same table: python -m repro.obs summarize {trace_path})")


if __name__ == "__main__":
    main()
