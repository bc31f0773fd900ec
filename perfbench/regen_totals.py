"""Recompute the computation-2 path totals that the basecase-20-15 check reads.

Usage: python3 perfbench/regen_totals.py

For each m from 1 to M_MAX it walks every (ell, m)-path with degr <= DSTAR,
for ell from 1 to DSTAR // m + 2, with the plain generator
``qtcat.paths.enumerate_bounded`` (not the census kernels the measured
program uses), and counts all paths and the maximal ones (first step
x_0 = m).  The result replaces
``perfbench/basecase_totals.json``.  It imports qtcat from ``src`` and writes
no bytecode there.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOTALS = os.path.join(HERE, "basecase_totals.json")

# the inputs of the basecase-20-15 workload: basecase --dstar 15 --m-max 20
DSTAR = 15
M_MAX = 20


def totals(m):
    from qtcat.paths import enumerate_bounded

    paths = maximal = 0
    for ell in range(1, DSTAR // m + 3):
        for _, p in enumerate_bounded(ell, m, DSTAR):
            paths += 1
            maximal += p.steps[0] == m
    return {"m": m, "paths": paths, "maximal": maximal}


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    rows = []
    for m in range(1, M_MAX + 1):
        rows.append(totals(m))
        print("m=%(m)d paths=%(paths)d maximal=%(maximal)d" % rows[-1], flush=True)
    doc = {"regenerate": "python3 perfbench/regen_totals.py", "computation2": rows}
    with open(TOTALS, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
