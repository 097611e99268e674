import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [["lambda_table.py"], ["strength_compare.py", "--trials", "20"],
                                  ["fock_phases.py", "--cutoff", "8", "--repeat", "2"], ["code_lines.py"],
                                  ["reader_phases.py", "--fock-dim", "120", "--dense-dim", "80", "--repeat", "1"],
                                  ["output_corpus.py", "{tmp}", "--cutoff", "10", "--trials", "50"],
                                  ["relation_costs.py", "--chunks", "2", "--trials", "20"]])
def test_helper_script_runs(argv, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    args = [a.format(tmp=tmp_path) for a in argv[1:]]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("skewbench_spans", ROOT / "skewbench" / "spans.py")


def _load_strength():
    return _load("strength_compare", ROOT / "scripts" / "strength_compare.py")


def test_strength_fixture_saturates_every_two_obs_bound():
    from skewsharp.fuzz import FuzzConfig, context_margins

    sc = _load_strength()
    fixture = sc.qubit_fixture()
    margins = context_margins(fixture, ("two-obs",), [])
    assert [rid for rid, *_ in margins] == ["eq9a", "eq9b", "eq10", "furuichi"]
    assert all(abs(m) <= 1e-10 for _, _, m, _ in margins)
    table = sc.bound_table(FuzzConfig(dims=(2,), n_obs=(2,), trials=1), fixture)
    assert table["trial"][0] == -1
    for key in ("B", "bound_eq3", "bound_eq9a"):
        assert abs(table[key][0] - 1 / 16) <= 1e-10, key


def test_strength_eq9a_bound_dominates_eq3():
    from skewsharp.fuzz import FuzzConfig

    sc = _load_strength()
    cfg = FuzzConfig(dims=(2, 3, 4), n_obs=(2,), trials=40, seed=17)
    table = sc.bound_table(cfg, sc.qubit_fixture())
    assert list(table["trial"]) == list(range(-1, 40))
    assert not table["eq9a_below_eq3"].any()


def test_strength_main_fails_on_a_planted_violation(monkeypatch, capsys):
    import skewsharp.fuzz as fz

    sc = _load_strength()
    assert sc.main(["--trials", "5"]) == 0
    monkeypatch.setattr(fz.wy_strongest_check, "ctx", lambda ctx, f: np.full(ctx.size, np.nan))
    assert sc.main(["--trials", "5"]) == 1
    out = capsys.readouterr().out
    assert "wy-strongest  samples=5 violations=5" in out
    assert "eq9a bound below eq3 bound: 0 of 6" in out


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
