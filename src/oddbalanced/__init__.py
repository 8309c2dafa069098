"""oddbalanced: exact counts and modular-analytic checks for odd-balanced
unimodal sequences.

The package has three layers:

* exact expansions (genfunc, enumerator): V(w;q) on integer columns with
  the rank variable w reduced mod w^c - 1 yields the totals v(n), the
  residue-class counts v(a,c;n) and the rank table v(m,n), by the
  three-term identity as exact q-series for odd c and by the outer-sum
  recurrence for even c; the brute-force enumerator checks them;
* complex-numeric evaluators (modular, transforms, decomposition) for the
  theta/eta/Appell/Mordell functions and the three-term decomposition of
  the generating function;
* asymptotic reports (asymptotics) comparing exact counts against the
  e^(pi*sqrt(n))/(16*c*n^(3/4)) main term and its relatives.

The hot kernels run from a compiled extension when built, with a
pure-Python fallback (see kernels.USING_COMPILED).
"""

from .enumerator import OddBalancedSequence, count_rank_table, enumerate_sequences, rank_of
from .genfunc import (
    RankTable,
    evaluate_V,
    evaluate_V_bounded,
    expand_overpartition,
    expand_partition,
    expand_V_rank,
    expand_v_totals,
)
from .kernels import USING_COMPILED
from .modular import (
    EvalResult,
    HalfPlanePoint,
    appell,
    eta,
    mordell,
    mu,
    theta,
    theta_decay_mainterm,
)

__version__ = "0.1.0"

__all__ = [
    "EvalResult", "HalfPlanePoint", "OddBalancedSequence", "RankTable",
    "USING_COMPILED",
    "appell", "count_rank_table", "enumerate_sequences", "eta", "evaluate_V",
    "evaluate_V_bounded", "expand_V_rank", "expand_overpartition",
    "expand_partition", "expand_v_totals", "mordell", "mu", "rank_of",
    "theta", "theta_decay_mainterm",
]
