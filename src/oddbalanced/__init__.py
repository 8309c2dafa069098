"""oddbalanced: exact counts and modular-analytic checks for odd-balanced
unimodal sequences.

The package has three layers:

* exact q-series machinery (series, rings, genfunc, enumerator) producing
  integer rank tables v(m,n) and their residue-class refinements v(a,c;n);
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
    expand_V_at_root,
    expand_V_rank,
    expand_v_totals,
    residue_twist,
    residue_twist_cyclotomic,
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
from .rings import CC, QQ, W, ZZ, CyclotomicRing, LaurentPoly
from .series import TruncatedSeries, pochhammer

__version__ = "0.1.0"

__all__ = [
    "CC", "CyclotomicRing", "EvalResult", "HalfPlanePoint", "LaurentPoly",
    "OddBalancedSequence", "QQ", "RankTable", "TruncatedSeries",
    "USING_COMPILED", "W", "ZZ",
    "appell", "count_rank_table", "enumerate_sequences", "eta", "evaluate_V",
    "evaluate_V_bounded", "expand_V_at_root", "expand_V_rank",
    "expand_overpartition", "expand_partition", "expand_v_totals", "mordell",
    "mu", "pochhammer", "rank_of", "residue_twist", "residue_twist_cyclotomic",
    "theta", "theta_decay_mainterm",
]
