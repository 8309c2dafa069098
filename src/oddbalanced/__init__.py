"""oddbalanced: exact counts and modular-analytic checks for odd-balanced
unimodal sequences.

The package has three layers, each imported from its own module:

* exact expansions (genfunc, enumerator): V(w;q) on integer columns with
  the rank variable w reduced mod w^c - 1 yields the totals v(n), the
  residue-class counts v(a,c;n) and the rank table v(m,n), each class a
  sum of partial theta series divided by phi(-q); the brute-force
  enumerator checks them, and so does the outer-sum recurrence, which
  lives in the tests;
* complex-numeric evaluators (modular, transforms, decomposition) for the
  theta/eta/Appell/Mordell functions, V(w;q) at a point
  (modular.evaluate_V_bounded) and the three-term decomposition of the
  generating function;
* asymptotic reports (asymptotics) comparing exact counts against the
  e^(pi*sqrt(n))/(16*c*n^(3/4)) main term and its relatives.

Importing the package loads no layer, nor anything else, so each CLI
command pays only for the layers it runs.  Everything runs in pure
Python.
"""

__version__ = "0.1.0"

# There is one kernel lane, pure Python.  The benchmark's record and its
# lane probe still read this flag.
USING_COMPILED = False


class InputError(ValueError):
    """Input a command cannot run on, refused by the layer that owns the
    rule (modular's DomainError is one, PoleError a DomainError); cli.main turns it
    into one stderr line and exit code 2."""


__all__ = ["InputError", "USING_COMPILED", "__version__"]
