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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_bindings(scope):
    """Names a function, lambda or comprehension binds in its own scope:
    parameters, stores, nested definitions, imports and exception names,
    less those it declares global.  Nested scopes are not entered."""
    bound, declared = set(), set()
    if isinstance(scope, _COMPREHENSIONS):
        todo = [gen.target for gen in scope.generators]
    else:
        arguments = scope.args
        bound.update(
            a.arg
            for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            + [arguments.vararg, arguments.kwarg]
            if a is not None
        )
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        if not isinstance(node, _FUNCTIONS + _COMPREHENSIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _module_loads(tree):
    """Loaded Names that can resolve to a module-level binding: a Name
    inside a function or comprehension that binds the same name (or
    inside one nested in a function that does) reads a local."""
    loads = set()
    todo = [(tree, frozenset())]
    while todo:
        node, bound = todo.pop()
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                loads.add(node.id)
            continue
        if isinstance(node, _FUNCTIONS):
            # decorators, defaults and annotations are read outside
            outer = [*getattr(node, "decorator_list", ()), node.args]
            outer += [node.returns] if getattr(node, "returns", None) else []
            inner = node.body if isinstance(node.body, list) else [node.body]
        elif isinstance(node, _COMPREHENSIONS):
            # the first iterable is read outside
            outer = [node.generators[0].iter]
            inner = [c for c in ast.iter_child_nodes(node) if c is not node.generators[0]]
            inner += [c for c in ast.iter_child_nodes(node.generators[0]) if c is not outer[0]]
        else:
            todo.extend((child, bound) for child in ast.iter_child_nodes(node))
            continue
        local = bound | _local_bindings(node)
        todo.extend((child, bound) for child in outer)
        todo.extend((child, local) for child in inner)
    return loads


def test_every_definition_is_reached():
    # every function, method and class in src/ is used somewhere in src/,
    # or is pinned by the benchmark's tracer (perfbench/spans.py, loaded
    # read-only): a method through an attribute of its name (obj.m), any
    # other definition through a loaded Name, an import or an attribute
    # (module.f); binding a variable or parameter of the same name counts
    # for nothing.  A module-level definition is reached only by a Name
    # that can resolve at module level, not by one read inside a function
    # that binds that name.  A definition that nothing reaches belongs in
    # tests/oracles.py or nowhere
    spans = _load_spans()
    pinned = {(layer, entry) for layer, entries in spans.ENTRY_POINTS.items() for entry in entries}
    pinned |= {
        ("fields", f"{cls}.{op}") for cls in ("Rationals", "PrimeField") for op in spans.FIELD_OPS
    }

    attributes, names, loads, defined = set(), set(), set(), []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names |= _module_loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
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
                    kind = (
                        "method" if isinstance(scope, ast.ClassDef)
                        else "module" if scope is tree else "nested"
                    )
                    defined.append((path.stem, qualname, node.name, kind, node.lineno))
                    scopes.append((node, qualname + "."))
    # a method is reached through attributes, a module-level definition
    # through module-level loads, and one nested in a function through any
    # load, its own function's included
    reach = {"method": attributes, "module": attributes | names, "nested": attributes | loads}
    found = [
        f"{module}.py:{lineno}: {qualname}"
        for module, qualname, name, kind, lineno in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in reach[kind]
        and (module, qualname) not in pinned
    ]
    assert found == []
