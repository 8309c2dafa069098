"""Every top-level function and method of the package is referenced by
other code in it, or is on ALLOWED with the reader that still needs it.
Special methods (__init__ and the like) are left out: Python calls them."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oddbalanced"

# module.name -> what reads it, though no code of the package references it by name
ALLOWED = {
    **{f"cli.cmd_{command}": "cli.main's dispatch, which finds each handler by its command's name"
       for command in ("expand", "enumerate", "verify_transforms", "verify_decomposition",
                       "asym_report", "equidistribution", "logconcavity_scan",
                       "lemma_ratios")},
    "enumerator.OddBalancedSequence._make": "namedtuple's constructor hook (_replace calls it)",
    **{f"kernels.{name}": "the benchmark's per-layer probes, by name (ROADMAP item 2)"
       for name in ("shifted_add", "shifted_add_one", "acc_add", "table_mul_w",
                    "table_geometric")},
    "enumerator.count_rank_table": "the tests' oracle and the benchmark's reference check "
                                   "(ROADMAP item 3)",
    "genfunc.RankTable.rank_polynomial": "the tests and the benchmark's reference generator "
                                         "(ROADMAP item 3)",
    "genfunc.expand_v_totals": "the benchmark's probes and the tests (ROADMAP item 3)",
    "genfunc.evaluate_V": "the benchmark's probes and the tests (ROADMAP item 3)",
}


def _names(node):
    """Each name that node's code references: a variable, or an attribute's name."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(qualified name, name, node) for each top-level function and each method of a
    top-level class but the special ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def unreferenced(sources):
    """module.qualified name of each definition in sources ({module: text}) that no
    code outside its own body references by name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}.{qualified}" for module, tree in trees.items()
                  for qualified, name, node in _definitions(tree)
                  if not everywhere[name] > _names(node)[name])


def test_the_check_finds_an_unreferenced_function():
    sources = {"a": "def used():\n    return 1\n\n\ndef unused():\n    return unused()\n",
               "b": "from a import used\n\n\nclass C:\n    def __init__(self):\n        pass\n\n"
                    "    def m(self):\n        return used()\n"}
    assert unreferenced(sources) == ["a.unused", "b.C.m"]


def test_every_function_is_referenced_or_allowed():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced(sources) == sorted(ALLOWED)
