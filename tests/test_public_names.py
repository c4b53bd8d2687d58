"""Every public top-level function and class of the package, and every
public method and property of a public class, is reached by the program
itself: another module, the CLI or the benchmark names it (for methods, the
acceptance criteria count too).  A name that only unit tests call is code
to delete, not an API."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "cylgauge").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _used_names(paths, attributes_only=False):
    """Every attribute name, and unless attributes_only every bare name, in paths."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not attributes_only:
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_classes(tree):
    return [node for node in tree.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]


def test_every_public_name_is_reached():
    used = _used_names(MODULES + BENCH)
    unreached = sorted(
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used
    )
    assert not unreached, f"public names no module, CLI command or benchmark reaches: {unreached}"


def test_every_public_method_is_reached():
    """Methods and properties are reached as attributes, so a local variable
    of the same name does not count; dunder and private methods are exempt."""
    used = _used_names(MODULES + BENCH + [ACCEPTANCE], attributes_only=True)
    unreached = sorted(
        f"{path.stem}.{cls.name}.{node.name}"
        for path in MODULES
        for cls in _public_classes(ast.parse(path.read_text()))
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in used
    )
    assert not unreached, f"public methods no module, CLI command, benchmark or criterion reaches: {unreached}"


def _passed_params(paths):
    """Every keyword passed in paths, and per callee name the most
    positional arguments it is given; a starred argument passes every
    position."""
    keywords, positions = set(), {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords.update(kw.arg for kw in node.keywords)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = float("inf") if starred else len(node.args)
            positions[callee] = max(positions.get(callee, 0), count)
    return keywords, positions


def _defaulted_params(tree):
    """(callee name, qualified name, parameter, positional index or None) of
    each defaulted parameter of a public function, public method or
    constructor; index None marks a keyword-only parameter."""
    scopes = [(node, node.name, node.name, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in _public_classes(tree):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                callee = cls.name if node.name == "__init__" else node.name
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                scopes.append((node, callee, f"{cls.name}.{node.name}", 0 if static else 1))
    for node, callee, qualname, skip in scopes:
        if callee.startswith("_"):
            continue
        args = node.args.posonlyargs + node.args.args
        for arg in args[len(args) - len(node.args.defaults):]:
            yield callee, qualname, arg.arg, args.index(arg) - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield callee, qualname, arg.arg, None


# defaulted parameters kept with a single value in program use, and why
KEPT_PARAMETERS = {
    # results are bit-identical for a given (seed, chunk size): the chunk
    # size is part of the documented determinism contract
    "montecarlo.chunked_mc_vector(chunk_size)",
}


def test_every_defaulted_parameter_is_passed():
    """A defaulted parameter that the program and the acceptance criteria
    always leave at its default is a constant, not an option.  Passed means
    by keyword name (the benchmark calls through wrappers), or positionally
    to a callee of the function's name."""
    keywords, positions = _passed_params(MODULES + BENCH + [ACCEPTANCE])
    unpassed = sorted(
        f"{path.stem}.{qualname}({param})"
        for path in MODULES
        for callee, qualname, param, index in _defaulted_params(ast.parse(path.read_text()))
        if param not in keywords
        and (index is None or positions.get(callee, 0) <= index)
    )
    unpassed = [name for name in unpassed if name not in KEPT_PARAMETERS]
    assert not unpassed, f"defaulted parameters no caller ever sets: {unpassed}"


def test_traced_element_layer_stays_plain_functions():
    """bench/tracing.py wraps a public function only when inspect.isfunction
    holds and its __module__ is the defining module, and it reads the
    element product as vars(ComplexGroupElement)["__mul__"].  A cache or
    another callable wrapper on a public function of groups or spectral, or
    a __mul__ moved off the class, would drop it from the per-layer
    metrics without an error."""
    for stem in ("groups", "spectral"):
        module = importlib.import_module(f"cylgauge.{stem}")
        tree = ast.parse((ROOT / "src" / "cylgauge" / f"{stem}.py").read_text())
        names = [node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        hidden = [name for name in names
                  if not inspect.isfunction(fn := getattr(module, name))
                  or fn.__module__ != module.__name__]
        assert names and not hidden, f"{stem}: public functions the tracer cannot wrap: {hidden}"
    element = importlib.import_module("cylgauge.groups").ComplexGroupElement
    assert inspect.isfunction(vars(element).get("__mul__"))
