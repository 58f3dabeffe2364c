"""Imports follow use: a command loads only the modules it runs.

Package ``__init__`` modules re-export lazily (:mod:`repro._lazy`), and
the trace path (interpreter, collector, trace codecs, worker) is imported
where it runs.  A warm ``reproduce`` therefore loads none of it, a
campaign over cached traces loads no interpreter, and the process
backends import the trace path once, before they fork.  Each check runs
in a fresh interpreter, so earlier tests' imports cannot hide a load.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: What a warm ``reproduce`` must never load.
TRACE_PATH = (
    "repro.isa.machine",
    "repro.isa.program",
    "repro.trace.io",
    "repro.trace.collector",
    "repro.engine.worker",
    "numpy",
    "subprocess",
)

#: Runs the CLI on ``argv[2:]``, then prints which of the JSON list of
#: module names in ``argv[1]`` it loaded.
CLI_SCRIPT = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "print(json.dumps(sorted(set(json.loads(sys.argv[1])) & set(sys.modules))))\n"
    "sys.exit(code)\n"
)

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.engine",
    "repro.isa",
    "repro.reporting",
    "repro.sequences",
    "repro.simulation",
    "repro.trace",
    "repro.workloads",
)


def _python(*args: str) -> subprocess.CompletedProcess:
    environment = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    run = subprocess.run([sys.executable, *args], env=environment, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    return run


def _cli(watched, *argv: str) -> tuple[str, list[str]]:
    """The CLI's output and which ``watched`` modules it loaded."""
    run = _python("-c", CLI_SCRIPT, json.dumps(list(watched)), *argv)
    output, _, loaded = run.stdout.rstrip("\n").rpartition("\n")
    return output, json.loads(loaded)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory holding a cold ``reproduce``'s entries."""
    root = tmp_path_factory.mktemp("layering")
    _cli((), "reproduce", "--cache-dir", str(root / "cache"), "--out", str(root / "out"))
    return root


def test_warm_reproduce_loads_no_trace_path(warm_cache):
    argv = ["reproduce", "--check", "--cache-dir", str(warm_cache / "cache"), "--out", str(warm_cache / "out")]
    output, loaded = _cli(TRACE_PATH, *argv)
    assert "simulations: 0 computed" in output
    assert "check passed: 15 deliverable(s)" in output
    assert loaded == []


def test_campaign_over_cached_traces_loads_no_interpreter(warm_cache):
    watched = ("repro.isa.machine", "repro.trace.collector", "repro.engine.worker")
    argv = ["campaign", "--benchmarks", "compress", "--predictors", "fcm4", "--cache-dir", str(warm_cache / "cache")]
    output, loaded = _cli(watched, *argv)
    assert "traces: 0 computed, 1 cached; simulations: 1 computed" in output
    # The simulate unit ran in this process, without the interpreter.
    assert loaded == ["repro.engine.worker"]


def test_process_backends_import_the_trace_path_before_forking():
    script = (
        "import json, sys\n"
        "from repro.engine.backends import resolve_backend\n"
        "loaded = set(sys.modules)\n"
        "backend = resolve_backend('persistent', 2)\n"
        "print(json.dumps([sorted(loaded & set(sys.argv[1:])), sorted(set(sys.modules) & set(sys.argv[1:]))]))\n"
        "backend.close()\n"
    )
    watched = ("repro.engine.worker", "repro.trace.collector", "repro.isa.machine", "repro.trace.io", "numpy")
    before, after = json.loads(_python("-c", script, *watched).stdout)
    assert before == []
    assert after == sorted(watched)


def test_importing_one_module_loads_only_its_packages():
    script = (
        "import json, sys\n"
        "import repro.isa.opcodes\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('repro'))\n"
        "import repro\n"
        "print(json.dumps([loaded, repro.engine.codecs.__name__]))\n"
    )
    loaded, codecs = json.loads(_python("-c", script).stdout)
    assert loaded == ["repro", "repro._lazy", "repro.isa", "repro.isa.opcodes"]
    assert codecs == "repro.engine.codecs"  # a submodule resolves by attribute access


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_package_exports_resolve(name):
    package = import_module(name)
    for export in package.__all__:
        assert getattr(package, export) is not None, export
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_name
    with pytest.raises(AttributeError):
        package.__no_such_dunder__
    # Importing a submodule binds the package attribute of its name to it.
    for submodule in set(package.__all__) & {module.name for module in pkgutil.iter_modules(package.__path__)}:
        import_module(f"{name}.{submodule}")
        assert not isinstance(getattr(package, submodule), ModuleType), submodule


def test_star_import_binds_every_export():
    import repro

    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= namespace.keys()
    assert namespace["create_predictor"] is repro.core.registry.create_predictor
