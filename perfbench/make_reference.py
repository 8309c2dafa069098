"""Write reference.json: the exact values the benchmark checks outputs against.

Run from the repository root:  python3 perfbench/make_reference.py

The values come from the program itself; perfbench/tests/test_reference.py
confirms them by independent routes (residue classes summing to the scalar
totals, the w <-> 1/w symmetry, and the brute-force enumerator).
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from oddbalanced import asymptotics, genfunc  # noqa: E402

MODULI = (3, 5, 7)
RESIDUE_CHECKPOINTS = (150, 600)
LOGCONCAVITY_N = 600


def main():
    table = genfunc.expand_V_rank(LOGCONCAVITY_N + 1)
    pbar = genfunc.expand_overpartition(LOGCONCAVITY_N + 1)
    totals = genfunc.expand_v_totals(workloads.SCALAR_TOP)

    residue = {
        str(c): {str(a): {str(n): table.residue_class(a, c, n) for n in RESIDUE_CHECKPOINTS}
                 for a in range(c)}
        for c in MODULI}
    total_points = RESIDUE_CHECKPOINTS + workloads.SCALAR_CHECKPOINTS + (workloads.SCALAR_TOP,)
    total = {str(n): totals[n] for n in total_points}

    logconcavity = {}
    for c in MODULI:
        for a in range(c):
            rep = asymptotics.logconcavity_scan(a, c, LOGCONCAVITY_N, table, pbar)
            logconcavity.setdefault(str(c), {})[str(a)] = {
                "square_threshold": rep.square_threshold,
                "square_violation_count": len(rep.square_violations),
                "square_fails_to_end": rep.square_fails_to_end,
                "double_threshold": rep.double_threshold,
                "double_scan_max": rep.double_scan_max,
                "double_violation_count": len(rep.double_violations),
                "bound_threshold": rep.bound_threshold,
                "bound_violation_count": len(rep.bound_violations),
            }

    rank_digest = [checks.rank_digest(table.rank_polynomial(n))
                   for n in range(workloads.EXPAND_N + 1)]
    by_rank = table.rank_polynomial(workloads.ENUMERATE_N)

    ref = {
        "residue": residue,
        "total": total,
        "logconcavity": logconcavity,
        "rank_digest": rank_digest,
        "enumerate": {"n": workloads.ENUMERATE_N,
                      "by_rank": {str(m): cnt for m, cnt in by_rank.items()}},
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
