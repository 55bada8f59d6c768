"""Determinism gate: two traced runs with one seed must count the same work.

    python3 perfbench/determinism.py RECORD_A RECORD_B

Compares two records written by ``run.py --trace 1`` (copy the first
before the second run overwrites it).  For every op index present in
both, the inputs and the counts in ``tracing.DETERMINISTIC_COUNTS``
(kernel calls and triangle evaluations, solver iterations and trials,
quadrature evaluations, crossing calls) must be identical.  Exits 1 and
lists the differences otherwise.
"""

from __future__ import annotations

import json
import sys


def mismatches(a: dict, b: dict) -> list[str]:
    """Differences between two traced records of the same workload and seed."""
    if (a["workload"], a["seed"], a["smoke"]) != (b["workload"], b["seed"], b["smoke"]):
        return ["records are of different workloads, seeds or modes"]
    other = {op["index"]: op for op in b["ops"]}
    out = []
    common = 0
    for op in a["ops"]:
        twin = other.get(op["index"])
        if twin is None:
            continue
        common += 1
        if "counts" not in op or "counts" not in twin:
            out.append(f"op {op['index']}: record was not traced")
            continue
        if op["inputs"] != twin["inputs"]:
            out.append(f"op {op['index']}: inputs differ")
        for name, value in op["counts"].items():
            if twin["counts"].get(name) != value:
                out.append(f"op {op['index']}: {name} {value} != {twin['counts'].get(name)}")
    if not common:
        out.append("no op index in common")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    bad = mismatches(a, b)
    for line in bad:
        print(line)
    print("determinism gate:", "FAIL" if bad else f"PASS ({len(a['ops'])} and {len(b['ops'])} ops)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
