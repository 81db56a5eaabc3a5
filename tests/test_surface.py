"""Library surface guard: every public name of every module of the
package (src/fluxcomb/*.py) is used by the program itself, every
dataclass field with a default is set to another value by a keyword
somewhere in the package, and every function parameter with a default
is passed by some call of that function in the package, or each is kept
on purpose with its reason. Every key of the CLI's bounds table is a
config leaf whose every rule holds at its edge, every packaged default
has its own type and keeps its bound, every key of the CLI's field tables
is a config leaf and every field a field of its class, every scenario
takes the config alone, and the CLI writes CSVs at one site, in main."""

import ast
import copy
import dataclasses
import math
import re
from pathlib import Path

import pytest

from fluxcomb import budget, cli, line, nonmarkov
from fluxcomb.errors import ConfigError

from helpers import config_leaves

SRC = Path(__file__).resolve().parents[1] / "src" / "fluxcomb"

# public names that no library code references, and defaulted fields and
# parameters that no library call sets, with why each stays
KEPT = {
    "__init__.BACKEND": "perfbench/worker.py records it",
    "cli.main.argv": "the console script calls main() with no arguments; "
                     "tests pass their own",
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


def _defaulted(tree: ast.Module, module: str):
    """(qualified name, callee, position, default) of each dataclass
    field and function parameter with a default: a field has no callee
    (any call may set it) and no position, a keyword-only parameter no
    position, and a method's positions start after self."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d)
                   for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) \
                            and item.value is not None:
                        yield (f"{module}.{node.name}.{item.target.id}",
                               None, None, ast.unparse(item.value))
            functions = [(f"{module}.{node.name}", item, 1)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            functions = [(module, node, 0)]
        else:
            continue
        for owner, fn, skip in functions:
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for k, (arg, default) in enumerate(zip(positional[first:],
                                                   a.defaults)):
                yield (f"{owner}.{fn.name}.{arg.arg}", fn.name,
                       first + k - skip, ast.unparse(default))
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield (f"{owner}.{fn.name}.{arg.arg}", fn.name, None,
                           ast.unparse(default))


def _unset() -> list:
    """Dataclass fields and function parameters with a default that no
    call in the package sets to another value, so each holds its default
    in every run of the program. A field is set by keyword in any call, a
    parameter by keyword or by position in a call of its function's name
    (a starred argument passes every position). A keyword of
    cli._keys(...) names a field in a key map and sets nothing; one whose
    value is the default's own literal passes that default. A keyword of a
    cli field table (_GEOMETRY = dict(n_cells="n_cells", ...)) sets its
    field: cli._build reads it from the config."""
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    calls = []          # (callee, positions passed, {keyword: value})
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and ast.unparse(node.func) != "_keys":
                f = node.func
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((
                    f.attr if isinstance(f, ast.Attribute) else ast.unparse(f),
                    math.inf if starred else len(node.args),
                    {k.arg: ast.unparse(k.value) for k in node.keywords}))
    return sorted(
        qual for module, tree in trees.items()
        for qual, callee, position, default in _defaulted(tree, module)
        if not any(
            callee in (None, name) and (
                position is not None and n_args > position
                or kws.get(qual.rsplit(".", 1)[1], default) != default)
            for name, n_args, kws in calls))


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


def test_bounds_hold_at_their_edges():
    """Each clause of each BOUNDS entry reads an operator of _COMPARE and
    a bound that float reads back as written (an integer for an integer
    leaf). The bound, or the nearest value inside it where the clause is
    strict, passes cli._bounded, and the nearest value past it fails,
    naming its key: +-1 for an integer, the next float for a float, one
    item more or fewer for a list."""
    leaves = {key: value for defaults in cli._packaged_defaults().values()
              for key, value in config_leaves(defaults)}
    for key, rule in cli.BOUNDS.items():
        default = leaves[key]
        is_float = type(default) is float
        for clause in rule.split(" and "):
            op, text = clause.split()
            assert op in cli._COMPARE, (key, clause)
            bound = float(text)
            if is_float:
                assert text == repr(bound) or text == str(int(bound)), \
                    (key, clause)
            else:
                assert text == str(int(bound)), (key, clause)

            def past(x, sign):
                return math.nextafter(x, sign * math.inf) if is_float \
                    else x + sign

            # the sign of the step past the bound
            out = -1 if op.startswith(">") else 1
            inside = bound if is_float else int(bound)
            if "=" not in op:
                inside = past(inside, -out)
            values = [inside, past(inside, out)]
            if type(default) is list:
                # the item _typed checks an empty default's items against
                item = default[0] if default else 0.0
                values = [[item] * n for n in values]
            cli._bounded(values[0], key)
            with pytest.raises(ConfigError, match=f"^'{re.escape(key)}' must"):
                cli._bounded(values[1], key)


def _check_defaults(tree: dict):
    """Each leaf of a scenario's defaults passes cli._typed against itself,
    unchanged, and cli._bounded where it has a BOUNDS entry."""
    for key, value in config_leaves(tree):
        assert cli._typed(value, value, key) == value
        if key in cli.BOUNDS:
            cli._bounded(value, key)


def test_defaults_hold_their_own_rules():
    """A run checks the values it merges, not the packaged defaults it
    leaves, so they are checked here; a default edited past its bound, or
    a list with an item of another type, fails."""
    for defaults in cli._packaged_defaults().values():
        _check_defaults(defaults)
    edited = copy.deepcopy(cli._packaged_defaults())
    edited["addressing"]["n_levels"] = 2
    with pytest.raises(ConfigError, match="^'n_levels' must be >= 3"):
        _check_defaults(edited["addressing"])
    edited["flux-sweep"]["harmonic_indices"][1] = 10.0
    with pytest.raises(ConfigError,
                       match=r"^'harmonic_indices\[1\]' must be an integer"):
        _check_defaults(edited["flux-sweep"])


def test_main_is_the_one_csv_writer():
    """Each scenario takes the config alone and returns its tables, and
    cli.py calls io.write_csv at one site, in main: no scenario can write
    a file before its run has computed every table."""
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    for fn in cli.SCENARIOS.values():
        args = functions[fn.__name__].args
        assert [a.arg for a in args.posonlyargs + args.args] == ["config"]
        assert not (args.vararg or args.kwonlyargs or args.kwarg)
    writers = [name for name, fn in functions.items()
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "io.write_csv"]
    assert writers == ["main"]


# each field table of the CLI, the class it builds and the config sections
# it is read from, as (scenario, section)
TABLES = [
    (cli._GEOMETRY, line.LineGeometry, [("line-sim", "geometry")]),
    (cli._DRIVE, line.FluxDrive, [("line-sim", "drive")]),
    (cli._SOURCE, line.SourceSpec, [("line-sim", "source")]),
    (cli._ARRAY, budget.QubitArraySpec,
     [("error-budget", "array"), ("scalability", "array")]),
    (cli._BUDGET_ARRAY, budget.QubitArraySpec, [("error-budget", "array")]),
    (cli._NOISE, nonmarkov.NoiseModel,
     [("spectroscopy", "one_over_f"), ("spectroscopy", "filtered")]),
    (cli._NOTCH, nonmarkov.NoiseModel, [("spectroscopy", "filtered")]),
]


def test_field_tables_pair_class_fields_with_section_leaves():
    """Every field of a table is a field of its class, and every key a
    leaf of its section in each scenario that reads the section; a
    (key, factor) entry turns a frequency in Hz into rad/s."""
    defaults = cli._packaged_defaults()
    for table, cls, sections in TABLES:
        assert set(table) <= {f.name for f in dataclasses.fields(cls)}, cls
        for field, key in table.items():
            if type(key) is tuple:
                key, factor = key
                assert key.endswith("_hz") and factor == cli.TWO_PI, field
            for scenario, section in sections:
                leaf = defaults[scenario][section].get(key)
                assert leaf is not None and type(leaf) is not dict, \
                    (scenario, section, key)


def test_built_keys_are_config_leaves(monkeypatch):
    """Each object a scenario builds on its packaged defaults names every
    field by a leaf of that scenario's config, derived fields too:
    scalability's n_qubits is its n_max."""
    build, built = cli._build, []

    def spy(*args, **derived):
        obj, keys = build(*args, **derived)
        built.append((type(obj).__name__, keys))
        return obj, keys

    monkeypatch.setattr(cli, "_build", spy)
    names = {}
    for scenario, defaults in cli._packaged_defaults().items():
        built.clear()
        cli.SCENARIOS[scenario](cli.resolve_config(scenario, None, []))
        leaves = {key for key, _ in config_leaves(defaults)}
        for name, keys in built:
            assert set(keys.values()) <= leaves, (scenario, name, keys)
        names[scenario] = [name for name, _ in built]
        if scenario == "scalability":
            assert built[0][1]["n_qubits"] == "n_max"
    assert {s: n for s, n in names.items() if n} == {
        "line-sim": ["LineGeometry", "FluxDrive", "SourceSpec"],
        "error-budget": ["QubitArraySpec"],
        "scalability": ["QubitArraySpec"],
        "spectroscopy": ["NoiseModel", "NoiseModel"],
    }
