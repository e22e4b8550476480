"""Package-level guards."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import qfbsim
from qfbsim import cli, config, experiment, histo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(qfbsim.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in qfbsim.__all__ if not hasattr(qfbsim, name)]
    assert missing == []


def _unread_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_unread_imports_are_found():
    assert _unread_imports("import os.path\nfrom a import b as c, d\nd()\n") \
        == ["c", "os"]


def test_every_imported_name_is_read():
    # a leftover import, or one kept only so that a benchmark hook
    # resolves, fails here with its module and name
    unread = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unread_imports(path.read_text(encoding="utf-8")))}
    assert unread == {}


def _load_perfbench(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark wraps qfbsim's functions by name from outside; a
    # renamed or removed hook fails here with a KeyError naming it
    tracer = _load_perfbench("tracer", monkeypatch)
    workloads = _load_perfbench("workloads", monkeypatch)
    owners = (cli, config, experiment, histo, histo.HistogramRam,
              experiment._EnvelopeFiller)
    before = [dict(vars(o)) for o in owners]
    mods = {"cli": cli, "config": config, "experiment": experiment,
            "histo": histo}
    with workloads.Capture().installed(cli, experiment):
        with tracer.Tracer().installed(mods) as installed:
            assert installed._patches
    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert {k for k in now.keys() - attrs.keys() if not k.startswith("__")} == set()
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_importing_the_cli_does_not_import_multiprocessing():
    # --jobs runs threads in the calling process; a fresh interpreter,
    # since the test runner may have imported multiprocessing itself
    code = ("import sys, qfbsim.cli; "
            "print(sorted(m for m in sys.modules if 'multiprocessing' in m))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
