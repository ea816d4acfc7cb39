"""The library still provides every name the benchmark in perfbench/ binds."""

import importlib
import importlib.util
import pathlib
import re

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
