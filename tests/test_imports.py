"""The package imports nothing outside the standard library, loads only
what a report needs, and defines nothing public that only tests use."""

import argparse
import ast
import collections.abc
import importlib
import re
import subprocess
import sys
import types
import typing
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bouquet_dyn"


def absolute_imports(path):
    """The top-level module of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_standard_library_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5, sources
    allowed = sys.stdlib_module_names | {"bouquet_dyn"}
    outside = {
        (path.name, name)
        for path in sources
        for name in absolute_imports(path)
        if name not in allowed
    }
    assert not outside, sorted(outside)


#: modules a report does not need, each costly to import: the entry
#: points load `argparse` and `importlib.resources` themselves, the JSON
#: writer loads its one encoder from the C module `_json` with its first
#: string, and `json` never; the records are `errors.Record`s, the root
#: solver's start points come from `math`, and `re` is loaded only to
#: read a claim line; no module has `from __future__ import annotations`,
#: and an annotation that names a `collections.abc` class is a string,
#: so neither `__future__` nor `collections` is imported for annotations
HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "argparse",
         "importlib.resources", "json", "_json", "typing", "cmath", "re",
         "__future__", "collections"}


def test_import_loads_only_what_a_report_needs():
    # the modules that importing the CLI module adds to a fresh isolated
    # interpreter's start-up set; nothing is timed.  -S skips `site`, whose
    # .pth files may preload a module (such as typing or re) and hide it
    code = ("import sys; before = set(sys.modules); "
            "sys.path.insert(0, sys.argv[1]); import bouquet_dyn.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    assert "bouquet_dyn.cli" in added
    assert sorted(HEAVY.intersection(added)) == []


def package_functions():
    """Each module-level function and each method of a module-level class
    that the package defines, with the module it is defined in."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"bouquet_dyn.{path.stem}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).values() if isinstance(value, type) else [value]
            for member in members:
                function = getattr(member, "__func__", member)
                if isinstance(function, types.FunctionType):
                    yield module, function


def test_quoted_annotations_name_something():
    # an annotation that needs an import or a name bound later is a
    # string, which no `def` evaluates: here each is, against the module's
    # names, the `collections.abc` classes, `argparse` and `NoReturn`, so
    # a misspelt one fails
    extra = {**vars(collections.abc), "argparse": argparse,
             "NoReturn": typing.NoReturn}
    checked = quoted = 0
    for module, function in package_functions():
        typing.get_type_hints(function, globalns={**extra, **vars(module)})
        checked += 1
        quoted += any(isinstance(a, str)
                      for a in function.__annotations__.values())
    assert checked > 80 and quoted > 25, (checked, quoted)


def test_first_json_write_loads_the_encoder():
    # a text report leaves `_json` unloaded; the first JSON write loads
    # it, writes `json.dumps`'s bytes, and leaves the C encoder in place
    # of the loader, so no later string goes through an import
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from bouquet_dyn import cli; "
        "doc = cli.parse_spec(open(sys.argv[2], encoding='utf-8').read()); "
        "report = cli.run_report(doc, cli.ReportOptions()); "
        "cli.render_text(report); print('_json' in sys.modules); "
        "text = cli.render_json(report); import _json, json; "
        "quote = _json.encode_basestring_ascii; "
        "print(cli._quote is quote, cli._ENCODERS[str] is quote, "
        "text == json.dumps(report, indent=2, sort_keys=True) + '\\n')")
    fixture = PACKAGE / "fixtures" / "rotor_g4.bqd"
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent),
         str(fixture)],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out == "False\nTrue True True\n"


def test_oracle_loads_with_its_first_report():
    # importing the CLI module loads every package module but the lift,
    # and a `--no-oracle` report, text or JSON, loads no package module;
    # the first report that runs the oracle loads it and writes the
    # fixture's frozen bytes
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from bouquet_dyn import cli; "
        "loaded = lambda: sorted(m for m in sys.modules "
        "if m.startswith('bouquet_dyn')); "
        "read = lambda name: open(sys.argv[2] + name, encoding='utf-8').read(); "
        "before = loaded(); print(*before); "
        "report = cli.run_report(cli.parse_spec(read('rotor_g4.bqd')), "
        "cli.ReportOptions(no_oracle=True)); "
        "cli.render_text(report); cli.render_json(report); "
        "print(loaded() == before); "
        "report = cli.run_report(cli.parse_spec(read('expand_double_g1.bqd')), "
        "cli.ReportOptions()); "
        "print(sorted(set(loaded()) - set(before)), "
        "cli.render_json(report) == read('expand_double_g1.json'))")
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent),
         f"{PACKAGE / 'fixtures'}/"],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out == ("bouquet_dyn bouquet_dyn.cli bouquet_dyn.errors "
                   "bouquet_dyn.homology bouquet_dyn.periods "
                   "bouquet_dyn.spectral bouquet_dyn.words\nTrue\n"
                   "['bouquet_dyn.pl_oracle'] True\n")


def test_no_record_compiles_code():
    # `collections.namedtuple` compiles each record's `__new__` at import,
    # and `typing.NamedTuple` adds a class creation on top: the records
    # derive from `errors.Record`, which compiles nothing
    def named(node):
        return getattr(node, "id", getattr(node, "attr", None))

    found = {
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and named(node.func) == "namedtuple"
        or isinstance(node, ast.ClassDef)
        and any(named(base) == "NamedTuple" for base in node.bases)
    }
    assert sorted(found) == []


def test_no_check_is_an_assert():
    # `python -O` strips assert statements, so a check written as one
    # would let a wrong value through: every check raises an error instead
    found = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


#: modules whose every number is an exact int
INTEGER_ONLY = ("homology.py", "pl_oracle.py")


def test_integer_modules_make_no_float():
    # no true division, no float or complex literal, and no float() or
    # complex() call: a float there would round an exact count
    found = [
        (name, node.lineno)
        for name in INTEGER_ONLY
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(), name))
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Constant)
        and type(node.value) in (float, complex)
        or isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("float", "complex")
    ]
    assert found == []


def test_input_refused_under_optimization():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from bouquet_dyn import PowerSequences; "
            "from bouquet_dyn.errors import InputError\n"
            "try: PowerSequences.of(((1.5,),), 3)\n"
            "except InputError as e: print(e)")
    out = subprocess.run(
        [sys.executable, "-O", "-I", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out == "matrix entry must be an int, got 1.5\n"


ROOT = PACKAGE.parents[1]


def referenced_names(tree):
    """Every name a module uses: `Name` ids, `Attribute` attrs and the
    last part of each imported name (docstrings and comments don't count)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


#: public methods no package code calls, each kept for a stated reason
UNUSED_METHODS: set[tuple[str, str]] = set()


def test_public_definitions_are_used():
    # a public top-level function or class, or a public method of a public
    # class, must be used by the package (re-exports in __init__ don't
    # count), the README example or the benchmark; what only tests call
    # belongs in tests/conftest.py
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            used.update(referenced_names(tree))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used.update(referenced_names(ast.parse(block)))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used.update(referenced_names(ast.parse(path.read_text(), str(path))))
    defined = {
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert len(defined) > 30, defined
    assert sorted(d for d in defined if d[1] not in used) == []
    methods = {
        (name, f"{node.name}.{item.name}")
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }
    assert len(methods) > 10, methods
    unused = {m for m in methods if m[1].rpartition(".")[2] not in used}
    assert sorted(unused - UNUSED_METHODS) == []
    assert UNUSED_METHODS <= unused, "an exempt method is used now"
