"""The library still provides every name the benchmark in perfbench/ binds."""

import ast
import configparser
import importlib
import importlib.util
import inspect
import pathlib
import random
import re
import sys

from degenls import config

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module        # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    # install() looks up every traced module, bound scipy function and method
    # (dynamics.CrankNicolson.step among them) by name
    import degenls.dynamics

    step = degenls.dynamics.CrankNicolson.step
    tracer = _load("tracer").Tracer()
    try:
        tracer.install()
        assert degenls.dynamics.CrankNicolson.step is not step
    finally:
        tracer.uninstall()
    assert degenls.dynamics.CrankNicolson.step is step


def test_workload_lookups_resolve():
    source = (PERFBENCH / "workloads.py").read_text()
    lookups = set(re.findall(r'mod\("(\w+)"\)\.(\w+)', source))
    assert lookups
    for module, name in sorted(lookups):
        assert hasattr(importlib.import_module(f"degenls.{module}"), name), f"{module}.{name}"


def _mod_name(node):
    """x for the expression `mod("x")`, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "mod" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)):
        return node.args[0].value
    return None


def test_workload_keywords_in_signatures():
    # A keyword the library no longer takes fails only when the benchmark
    # runs; resolve `mod("x").f(...)` and `alias = mod("x")` ... `alias.f(...)`
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _mod_name(node.value):
            for target in node.targets:
                assert aliases.setdefault(target.id, _mod_name(node.value)) \
                    == _mod_name(node.value), f"{target.id} aliases two modules"
    passed = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        module = _mod_name(owner) or (isinstance(owner, ast.Name) and aliases.get(owner.id))
        if module:
            passed |= {(module, node.func.attr, kw.arg) for kw in node.keywords if kw.arg}
    assert passed
    for module, name, keyword in sorted(passed):
        fn = getattr(importlib.import_module(f"degenls.{module}"), name)
        assert keyword in inspect.signature(fn).parameters, f"{module}.{name}({keyword}=)"


def test_cli_configs_set_live_fields(tmp_path):
    # A key that config retired still loads, so a benchmark config setting one
    # would run silently with the default
    inputs = _load("workloads")._cli_generate(random.Random(0), str(tmp_path))
    assert inputs["configs"]
    for path in inputs["configs"].values():
        parser = configparser.ConfigParser()
        parser.read(path)
        for section in parser.sections():
            for key in parser.options(section):
                assert config._LAYOUT[section].get(key), f"{path}: [{section}] {key}"


def _is_function(span):
    """Whether span, "module.name" or "module.Class.method", names a callable of degenls."""
    module, *path = span.split(".")
    obj = importlib.import_module(f"degenls.{module}")
    for name in path:
        obj = getattr(obj, name, None)
    return callable(obj)


def test_run_spans_resolve():
    # run.py reads a span it finds no trace of as 0: a function deleted or
    # renamed in the library would turn its metrics to 0 without an error
    source = (PERFBENCH / "run.py").read_text()
    spans = set(re.findall(r'(?:calls|secs|self_s|stats\.get)\("([\w.]+)"\)', source))
    record = re.search(r'for name in \(([^)]*)\):\s*st = stats\.get\(f"(\w+)\.\{name\}"\)',
                       source)
    assert spans and record
    spans |= {f"{record.group(2)}.{name}" for name in re.findall(r'"(\w+)"', record.group(1))}
    for span in sorted(spans):
        assert _is_function(span), span
