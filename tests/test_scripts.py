import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [["lambda_table.py"], ["strength_compare.py", "--trials", "20"],
                                  ["fock_phases.py", "--cutoff", "8", "--repeat", "2"]])
def test_helper_script_runs(argv):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def _load_spans():
    spec = importlib.util.spec_from_file_location("skewbench_spans", ROOT / "skewbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced(spans):
    """(module, class or None, name) of every function the benchmark traces."""
    for mod_name, fns in spans.LAYERS.items():
        mod = importlib.import_module(f"skewsharp.{mod_name}")
        for fn in fns:
            cls_name, _, meth = fn.rpartition(".")
            yield mod, getattr(mod, cls_name) if cls_name else None, meth


def test_benchmark_traced_names_resolve_and_come_back():
    # a traced function that is renamed or deleted fails here, not only in a traced benchmark run
    import skewsharp.cli  # noqa: F401  (binds every traced name the CLI imports)

    spans = _load_spans()
    before = {}
    for mod, cls, name in _traced(spans):
        if cls is None:
            assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"
            before[mod, name] = getattr(mod, name)
        else:
            assert isinstance(vars(cls).get(name), classmethod), f"{cls.__name__}.{name}"
            before[cls, name] = vars(cls)[name]
    modules = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("skewsharp") and m}

    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod, cls, name in _traced(spans):
            if cls is None:
                assert getattr(mod, name).__wrapped__ is before[mod, name]
            else:
                wrapped = vars(cls)[name]
                assert isinstance(wrapped, classmethod)
                assert wrapped.__func__.__wrapped__ is before[cls, name].__func__
    finally:
        tracer.uninstall()

    for (owner, name), orig in before.items():
        assert vars(owner)[name] is orig
    for k, snapshot in modules.items():
        now = vars(sys.modules[k])
        assert all(now[attr] is val for attr, val in snapshot.items()), k
