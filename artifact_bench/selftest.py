"""Benchmark self-test.

Checks, per workload, at a tiny budget (a few iterations past the
initial design):

* the timed and the traced run complete and pass their output checks;
* every metric ``BENCHMARK.json`` names is emitted, with its unit;
* each layer's ``.calls`` is nonzero exactly on the workloads that
  ``workloads.py`` predicts — a renamed or moved public function
  silently zeroing a layer fails here;
* the layer self times plus ``other.s`` add up to the traced wall.

With ``--full`` it instead traces every workload at its benchmark size
and checks the shares predicted in ``README.md``: the ``spice`` layer is
at least 40% of ``pa-tab1`` and under 2% elsewhere, ``moo.ehvi`` is the
largest layer on ``pareto-opamp``.

Run from the repository root::

    python3 artifact_bench/selftest.py [--full]
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run  # first: pins BLAS threads before numpy loads

import layers  # noqa: E402
import workloads  # noqa: E402

#: post-initial-design budget of the tiny runs, in high-fidelity units
TINY_EXTRA = 0.4


def _invoke(argv: list[str], tolerate: tuple[str, ...] = ()) -> dict:
    """Run ``run.py`` in-process; fail on any output check not tolerated."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv)
    lines = buffer.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    failed = [
        line for line in lines
        if line.strip().startswith("CHECK FAILED:")
        and not any(text in line for text in tolerate)
    ]
    if failed or (code != 0 and result["correct"]):
        raise AssertionError("\n".join(lines[-12:]))
    return result


def _check_units(result: dict, expected: list[dict], errors: list, tag: str):
    metrics = result["metrics"]
    names = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(names):
        errors.append(
            f"{tag}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(names))}"
        )
    for name, unit in names.items():
        got = metrics.get(name, {}).get("unit")
        if name in metrics and got != unit:
            errors.append(f"{tag}: {name} unit {got!r}, expected {unit!r}")


def _self_time_sum(metrics: dict) -> float:
    return sum(
        metrics[f"{name}.s"]["value"] for name in layers.SPANS
    ) + metrics["other.s"]["value"]


def tiny(spec: dict) -> list[str]:
    errors: list[str] = []
    run._import_program()
    for name, workload in workloads.WORKLOADS.items():
        known = len(errors)
        problem = workloads.make_problem(name)
        n_low, n_high = workload.init
        budget = (
            n_low * problem.cost("low") + n_high * problem.cost("high")
            + TINY_EXTRA
        )
        workloads.WORKLOADS[name] = dataclasses.replace(
            workload, budget=budget
        )
        # A few iterations need not reach a feasible design.
        tolerate = ("best design is infeasible", "hypervolume 0.0 is not")
        try:
            args = ["--workload", name, "--seed", "2019", "--seconds", "1"]
            timed = _invoke(args + ["--trace", "0"], tolerate)
            _check_units(timed, spec["end_to_end"], errors, f"{name} trace 0")
            traced = _invoke(args + ["--trace", "1"], tolerate)
            _check_units(traced, spec["per_layer"], errors, f"{name} trace 1")
        finally:
            workloads.WORKLOADS[name] = workload
        metrics = traced["metrics"]
        for span in layers.SPANS:
            calls = metrics[f"{span}.calls"]["value"]
            if (calls > 0) != (span in workload.layers):
                errors.append(
                    f"{name}: {span}.calls = {calls}, predicted "
                    f"{'nonzero' if span in workload.layers else 'zero'}"
                )
        record = run.WORK / "results" / f"{name}-seed2019-trace1.json"
        wall = json.loads(record.read_text())["traced_wall_s"]
        if abs(_self_time_sum(metrics) - wall) > 1e-6 * max(1.0, wall):
            errors.append(f"{name}: self times do not add up to {wall} s")
        print(f"{name}: {errors[known:] or 'ok'}")
    return errors


def full() -> list[str]:
    errors: list[str] = []
    shares = {}
    for name in workloads.WORKLOADS:
        metrics = _invoke(
            ["--workload", name, "--seed", "2019", "--trace", "1"]
        )["metrics"]
        wall = _self_time_sum(metrics)
        spice = sum(
            metrics[f"{span}.s"]["value"]
            for span in layers.SPANS if span.startswith("spice.")
        )
        largest = max(layers.SPANS, key=lambda s: metrics[f"{s}.s"]["value"])
        shares[name] = (spice / wall, largest)
        print(f"{name}: spice {spice / wall:.1%} of {wall:.2f} s, "
              f"largest layer {largest}")
    if shares["pa-tab1"][0] < 0.40:
        errors.append("spice is under 40% of pa-tab1")
    for name in ("opamp-served", "pareto-opamp"):
        if shares[name][0] >= 0.02:
            errors.append(f"spice is not under 2% of {name}")
    if shares["pareto-opamp"][1] != "moo.ehvi":
        errors.append("moo.ehvi is not the largest layer on pareto-opamp")
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = full() if "--full" in sys.argv[1:] else tiny(spec)
    for error in errors:
        print(f"FAIL: {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
