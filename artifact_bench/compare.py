"""Compare two saved benchmark results of one workload.

    python3 artifact_bench/compare.py BASE.json NEW.json

Both files are records ``run.py`` saved under ``.bench_work/results/``.
The comparison is refused (exit 3) when the two were measured on
different machine identities or are not the same workload and mode.
Otherwise every metric is printed with its relative change; for
end-to-end metrics the change is checked against the bound in
``BENCHMARK.json`` and the exit status is 1 if any is exceeded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from identity import identity_mismatch

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    mismatch = identity_mismatch(base["identity"], new["identity"])
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            mismatch.append(f"{key}: {base[key]!r} != {new[key]!r}")
    if mismatch:
        print("refusing to compare results from different setups:")
        for line in mismatch:
            print(f"  {line}")
        return 3
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = []
    for name, metric in new["metrics"].items():
        before = base["metrics"][name]["value"]
        after = metric["value"]
        change = (after - before) / abs(before) if before else 0.0
        verdict = ""
        if name in bounds:
            sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
            if sign * change > bounds[name]["bound"]:
                verdict = "  WORSE than bound"
                worse.append(name)
        print(f"{name:32s} {before!r:>24} -> {after!r:<24} "
              f"{change:+.1%} {metric['unit']}{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
