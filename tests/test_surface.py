"""Library surface guard: every public name of every module of the
package (src/fluxcomb/*.py) is used by the program itself, and every
dataclass field with a default is set to another value by a keyword
somewhere in the package, or is kept on purpose with its reason. Every
key of the CLI's bounds table is a config leaf."""

import ast
from collections import defaultdict
from pathlib import Path

from fluxcomb import cli

from helpers import config_leaves

SRC = Path(__file__).resolve().parents[1] / "src" / "fluxcomb"

# public names that no library code references, and defaulted fields
# that no library call sets, with why each stays
KEPT = {
    "__init__.BACKEND": "perfbench/worker.py records it",
    "line.Simulator.stored_energy":
        "the energy invariants; run telemetry is to report it",
    "line.isolation_report":
        "acceptance 3 and the benchmark call it directly",
    "nonmarkov.fit_decay":
        "acceptance 10 fits the decay exponents with it",
}


def _public(tree: ast.Module, module: str):
    """(qualified name, name, is a method) for each public top-level name
    of a module and each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_"):
                continue
            yield f"{module}.{name}", name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{module}.{name}.{item.name}", item.name, True


def _unused() -> list:
    """Public names that no module of the package refers to: a top-level
    name read by name (its own assignment is no use) or as a module
    attribute, a method as an attribute."""
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                        ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return sorted(qual for module, tree in trees.items()
                  for qual, name, method in _public(tree, module)
                  if name not in attrs and (method or name not in names))


def _unset() -> list:
    """Dataclass fields with a default that no call in the package sets
    by keyword to another value, so each holds its default in every run
    of the program. A keyword of cli._keys(...) names a field in a key
    map and sets nothing; one whose value is the field's own default
    literal passes that default."""
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    passed = defaultdict(set)       # keyword -> source of each value
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and ast.unparse(node.func) != "_keys":
                for k in node.keywords:
                    passed[k.arg].add(ast.unparse(k.value))
    return sorted(
        f"{module}.{node.name}.{item.target.id}"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and item.value is not None
        and not passed[item.target.id] - {ast.unparse(item.value)})


def test_public_names_reach_the_program():
    assert [q for q in _unused() if q not in KEPT] == []


def test_defaulted_fields_are_set_by_the_program():
    assert [q for q in _unset() if q not in KEPT] == []


def test_kept_names_are_still_flagged():
    # a kept name that the program now uses, or that is gone, leaves the
    # list
    flagged = _unused() + _unset()
    assert sorted(KEPT) == sorted(q for q in flagged if q in KEPT)


def test_bounds_are_config_leaves():
    # a renamed key must not silently drop its bound
    leaves = {key for defaults in cli._packaged_defaults().values()
              for key, _ in config_leaves(defaults)}
    assert set(cli.BOUNDS) - leaves == set()
