"""The argparse parser that cli's option table replaced, kept as the
reference that table is checked against (test_cli).  It differs from the
table in one documented way: argparse also accepts an unambiguous prefix
of a flag (--check for --checkpoints), and the table does not.
"""

import argparse


def _number_list(kind):
    """Parser of a comma-separated list; a repeated value is kept once, at
    its first place, so that no row is printed twice."""
    def parse(text):
        try:
            return tuple(dict.fromkeys(kind(x) for x in text.split(",") if x))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__}s, got {text!r}") from None
    return parse


_int_list = _number_list(int)
_float_list = _number_list(float)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors are one stderr line; the subcommand
    parsers inherit it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(
        prog="oddbalanced",
        description="Exact counts, modular transformation checks and "
                    "asymptotic reports for odd-balanced unimodal sequences.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="file path (default stdout)")

    sp = sub.add_parser("expand", help="dump the exact rank table v(m,n)")
    sp.add_argument("--n-max", type=int, default=10)
    common(sp)

    sp = sub.add_parser("enumerate", help="list all sequences of size 2n+2 as JSON lines")
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--output", default=None, help="file path (default stdout)")

    sp = sub.add_parser("verify-transforms",
                        help="residual table for the transformation laws")
    sp.add_argument("--seed", type=int, default=20260810)
    common(sp)

    sp = sub.add_parser("verify-decomposition",
                        help="residuals of the three-term decomposition identity")
    sp.add_argument("--grid", default="default",
                    help='"default" or a JSON file of {z_re, z_im, tau_re, tau_im, order}')
    common(sp)

    sp = sub.add_parser("asym-report", help="exact counts vs main term at checkpoints")
    sp.add_argument("--a", dest="residue", type=int, default=0)
    sp.add_argument("--c", dest="modulus", type=int, default=1)
    sp.add_argument("--checkpoints", type=_int_list, default=None)
    sp.add_argument("--allow-even", action="store_true",
                    help="tabulate exact counts for even c (no main-term column)")
    sp.add_argument("--precision", type=int, default=50,
                    help="significant digits for high-precision columns")
    common(sp)

    sp = sub.add_parser("equidistribution",
                        help="max_a |c v(a,c;n)/v(n) - 1| at checkpoints")
    sp.add_argument("--moduli", type=_int_list, default=(3, 5, 7))
    # no value: the layer, asymptotics, chooses the default checkpoints
    sp.add_argument("--checkpoints", type=_int_list, default=None)
    common(sp)

    sp = sub.add_parser("logconcavity-scan",
                        help="product inequalities and the overpartition bound")
    sp.add_argument("--a", dest="residue", type=int, default=0)
    sp.add_argument("--c", dest="modulus", type=int, default=1)
    sp.add_argument("--n-max", type=int, default=600)
    common(sp)

    sp = sub.add_parser("lemma-ratios",
                        help="series value over interval main term at z=j/c")
    sp.add_argument("--moduli", type=_int_list, default=(3, 5))
    sp.add_argument("--t-values", type=_float_list, default=(0.1, 0.05, 0.025))
    common(sp)

    return p
