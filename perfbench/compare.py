"""Compare two benchmark detail files of one workload and seed.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints every metric with both values and their ratio (after / before), then
every op both runs made whose physics outputs differ, with the largest
relative change.  Detail files are written by run.py to perfbench/out/.
"""
from __future__ import annotations

import json
import math
import sys


def _rel(a, b):
    if isinstance(a, list):
        return max((_rel(x, y) for x, y in zip(a, b)), default=0.0)
    if a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0], encoding="utf-8") as fh:
        before = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        after = json.load(fh)
    if (before["workload"], before["seed"]) != (after["workload"],
                                                 after["seed"]):
        print("note: different workload or seed; only metrics compare")
    print(f"{'metric':<44} {'before':>12} {'after':>12} {'after/before':>12}")
    for name, m in before["metrics"].items():
        a = m["value"]
        b = after["metrics"].get(name, {}).get("value")
        ratio = (f"{b / a:12.4f}" if b is not None and a else
                 f"{'-':>12}")
        shown = f"{b:12.6g}" if b is not None else f"{'-':>12}"
        print(f"{name:<44} {a:12.6g} {shown} {ratio}  {m['unit']}")
    ops_b = {r["id"]: r for r in before["records"]}
    changed = 0
    for r in after["records"]:
        old = ops_b.get(r["id"])
        if old is None:
            continue
        if old["verdict"] != r["verdict"]:
            print(f"op {r['id']}: verdict {old['verdict']} -> {r['verdict']}"
                  f" {r['why']}")
            changed += 1
        elif old["physics"] and r["physics"]:
            diffs = {k: _rel(v, r["physics"].get(k, v))
                     for k, v in old["physics"].items()}
            worst = max(diffs, key=diffs.get)
            if diffs[worst] > 0:
                print(f"op {r['id']}: physics changed, largest {worst} "
                      f"rel {diffs[worst]:.3g}")
                changed += 1
    print(f"{changed} common ops changed their physics or verdict")


if __name__ == "__main__":
    main(sys.argv[1:])
