"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each listed skewsharp function by a timing wrapper
in every skewsharp module that binds it (``from .skew import f`` makes a second
binding that a patch of ``skew.f`` alone would miss), and classmethods on their
class.  ``uninstall`` puts the originals back, so untraced rounds run the
unmodified program.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "linalg": ("DensityMatrix.from_matrix",),
    "skew": ("ObservableSet.from_matrices", "check_refined_rs", "two_obs_relations",
             "covariance_matrix", "commutator_matrix", "wy_skew_matrix", "det_symmetric_psd"),
    "gcov": ("resolve_monotone", "lambda_f", "g_covariance", "f_skew_matrix", "build_Lg",
             "check_g_triple", "check_metric_adjusted", "wy_strongest_check"),
    "gaussian": ("exact_moments", "fock_truncate_thermal", "quadrature_observables",
                 "nongaussianity"),
    "fuzz": ("run_fuzz", "trial_margins", "random_density", "random_observables"),
    "serialize": ("load_json", "parse_state", "parse_observables", "dumps", "write_text",
                  "sha256_of_file"),
    "cli": ("build_parser", "cmd_check", "cmd_gaussian", "cmd_nongauss"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []   # (id, parent, op, name, t0, t1)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.op, name, t0, t1)

        return timed

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("skewsharp") and m]
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"skewsharp.{mod_name}")
            for fn in fns:
                name = f"{mod_name}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    self._undo.append((cls, meth, raw))
                    continue
                orig = getattr(mod, fn)
                timed = self._wrap(name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, timed)
                            self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "t0": t0, "t1": t1}) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def reduce_spans(spans: list[dict], traced_op_seconds: float) -> dict[str, float]:
    """Per-name call counts and self time, plus the share of op time under a root span.

    Self time is a span's duration minus its children's; in one thread children
    nest without overlap, so their durations add.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["t1"] - s["t0"]
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    root = 0.0
    for s in spans:
        dur = s["t1"] - s["t0"]
        calls[s["name"]] += 1
        self_s[s["name"]] += dur - child_time[s["id"]]
        if s["parent"] < 0:
            root += dur
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["trace.coverage"] = root / traced_op_seconds if traced_op_seconds > 0 else 0.0
    return out
