"""Static checks on the library source."""

import ast
from pathlib import Path

import gotonum
from test_trace_entry_points import _load_spans

SOURCE = Path(gotonum.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime check written as
    # one would silently vanish; raise a GotoNumberError instead
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_floating_point():
    # every value the library reports is exact: integers and Fractions only
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno}: float")
    assert found == []


def test_no_true_division():
    # integer code must never pick up a float from `/`; exact quotients
    # are Fraction(a, b) and integer ones //
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_ideal_private_slots_stay_in_ring():
    # the integer model and the other memos of an ideal are ring.py's to
    # build and read; other modules go through integer_model
    from gotonum.ring import CanonicalIdeal

    private = {name for name in CanonicalIdeal.__slots__ if name.startswith("_")}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "ring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert found == []


def test_digit_limit_stays_in_fields():
    # every number the CLI reads goes through fields.read_number, which
    # alone checks Python's integer-string limit; no other module names it
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "get_int_max_str_digits") or (
                isinstance(node, ast.alias) and node.name == "get_int_max_str_digits"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_semigroup_private_state_stays_in_semigroup():
    # the Apery set and the memoized tables (m-adic orders, escape orders,
    # monomial floors) are semigroup.py's to build and read; other modules
    # go through NumericalSemigroup's public methods
    from gotonum.semigroup import NumericalSemigroup

    names = set(vars(NumericalSemigroup)) | set(vars(NumericalSemigroup([3, 5])))
    private = {name for name in names if name.startswith("_") and not name.endswith("__")}
    assert private
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "semigroup.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert found == []


def test_only_cli_writes_output():
    # stdout is byte-identical for the same input and stderr carries only
    # cli's error line, so no other module prints or touches sys.stdout or
    # sys.stderr; search's TSV lines are written by cli as records stream
    streams = {"stdout", "stderr"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id == "print":
                found.append(f"{path.name}:{node.lineno}: print")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in streams
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ):
                found.append(f"{path.name}:{node.lineno}: sys.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                names = streams & {alias.name for alias in node.names}
                found += [f"{path.name}:{node.lineno}: from sys import {n}" for n in sorted(names)]
    assert found == []


def test_no_interpreter_wide_settings():
    # the garbage collector, the integer-string digit limit and the
    # recursion limit belong to the caller: src/ never imports gc and never
    # calls sys.set_int_max_str_digits or sys.setrecursionlimit
    setters = {"set_int_max_str_digits", "setrecursionlimit"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import) and "gc" in {alias.name for alias in node.names}:
                found.append(f"{path.name}:{node.lineno}: import gc")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.append(f"{path.name}:{node.lineno}: from gc import")
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                names = setters & {alias.name for alias in node.names}
                found += [f"{path.name}:{node.lineno}: from sys import {n}" for n in sorted(names)]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in setters
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ):
                found.append(f"{path.name}:{node.lineno}: sys.{node.attr}")
    assert found == []


def test_public_api_matches_exports():
    # every name in __all__ resolves on the package, and every public name
    # that __init__.py imports is listed in __all__: a removal that leaves
    # a stale export, or an import that skips __all__, fails here
    missing = [name for name in gotonum.__all__ if not hasattr(gotonum, name)]
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unlisted = sorted(n for n in imported if not n.startswith("_") and n not in gotonum.__all__)
    assert (missing, unlisted) == ([], [])


def test_every_definition_is_reached():
    # every function, method and class in src/ is used somewhere in src/,
    # or is pinned by the benchmark's tracer (perfbench/spans.py, loaded
    # read-only): a method through an attribute of its name (obj.m), any
    # other definition through a loaded Name, an import or an attribute
    # (module.f); binding a local variable or parameter of the same name
    # counts for nothing.  A definition that nothing reaches belongs in
    # tests/oracles.py or nowhere
    spans = _load_spans()
    pinned = {(layer, entry) for layer, entries in spans.ENTRY_POINTS.items() for entry in entries}
    pinned |= {
        ("fields", f"{cls}.{op}") for cls in ("Rationals", "PrimeField") for op in spans.FIELD_OPS
    }

    attributes, names, defined = set(), set(), []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        scopes = [(tree, "")]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = prefix + node.name
                    method = isinstance(scope, ast.ClassDef)
                    defined.append((path.stem, qualname, node.name, method, node.lineno))
                    scopes.append((node, qualname + "."))
    found = [
        f"{module}.py:{lineno}: {qualname}"
        for module, qualname, name, method, lineno in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in (attributes if method else attributes | names)
        and (module, qualname) not in pinned
    ]
    assert found == []
