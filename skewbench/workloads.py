"""The workloads: inputs made from a seed, whole rounds of program calls, output checks.

Every op is one call into a public entry point of skewsharp, timed alone; the
checks run after it, outside the timed call.  A check that fails appends a
message to ``errors`` and the run reports ``correct: false``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import time

import numpy as np

import reference as ref
from skewsharp import cli, fuzz, gcov, linalg, skew

F_LABELS = ("wy", "sld", "wyd:0.3")


def warm_up() -> None:
    """Build the f catalog once and start the BLAS thread pool (about 0.25 s on first use)."""
    for label in F_LABELS:
        gcov.lambda_f(gcov.resolve_monotone(label))
    a = np.ones((256, 256))
    a @ a


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    return code, dt, out.getvalue()


def _max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


class Workload:
    """``prepare`` makes and writes the inputs (timed as set-up); ``round`` runs one
    whole round and calls ``record(seconds, ops, failed)`` once per timed call."""

    name = ""
    probe = "numpy-small"   # speed.SpeedProbe kernel closest to the ops' mix

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 0x5EED])
        self.errors: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def fail(self, msg: str) -> None:
        if len(self.errors) < 50:
            self.errors.append(f"{self.name}: {msg}")

    def prepare(self) -> None:
        pass

    def round(self, index: int, record) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass


# ----------------------------------------------------------------- fuzz gate

FUZZ_DIMS = (2, 3, 4, 5, 6)
FUZZ_N = (1, 2, 3, 4)
FUZZ_RANKS = ("full", 1)
FUZZ_GROUPS = ("rs", "refined", "weak-chain", "two-obs", "g-psd", "eq18", "eq19", "wy-strongest")
FUZZ_CHUNK = 50
ONCE_PER_TRIAL = ("rs", "eq3", "eq4a", "eq4b", "eq7-psd", "eq8-schur", "eq17", "wy-strongest")
ONCE_PER_F = ("eq16", "eq18", "eq19")
TWO_OBS = ("eq9a", "eq9b", "eq10", "furuichi")


class FuzzGate(Workload):
    """``fuzz.run_fuzz`` on the acceptance configuration, in chunks of FUZZ_CHUNK trials."""

    name = "fuzz-gate"

    def prepare(self) -> None:
        self.side = []
        for _ in range(8):
            dim = int(self.rng.integers(2, 7))
            n = int(self.rng.integers(1, min(4, dim * dim - 1) + 1))
            pure = bool(self.rng.integers(2))
            rho = ref.ginibre_state(dim, pure, self.rng)
            self.side.append((rho, [ref.gue(dim, self.rng) for _ in range(n)], pure))

    def round(self, index: int, record) -> None:
        chunk_seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
        config = fuzz.FuzzConfig(dims=FUZZ_DIMS, n_obs=FUZZ_N, ranks=FUZZ_RANKS,
                                 trials=FUZZ_CHUNK, seed=chunk_seed, relations=FUZZ_GROUPS,
                                 f_labels=F_LABELS)
        t0 = time.perf_counter()
        try:
            stats = fuzz.run_fuzz(config)
        except linalg.SkewsharpError as exc:
            self.fail(f"seed {chunk_seed}: run_fuzz raised {exc!r}")
            stats = None
        record(time.perf_counter() - t0, FUZZ_CHUNK, 0)
        if stats is not None:
            self.check_stats(stats, chunk_seed)

    def expected_counts(self, chunk_seed: int) -> dict[str, int]:
        """Per-relation sample counts, from the documented per-trial draw of (dim, n)."""
        combos = [(d, n) for d in FUZZ_DIMS for n in FUZZ_N if n <= d * d - 1]
        two = sum(
            combos[int(np.random.default_rng([chunk_seed, t]).integers(len(combos)))][1] == 2
            for t in range(FUZZ_CHUNK)
        )
        counts = {rid: FUZZ_CHUNK for rid in ONCE_PER_TRIAL}
        counts.update({rid: len(F_LABELS) * FUZZ_CHUNK for rid in ONCE_PER_F})
        if two:
            counts.update({rid: two for rid in TWO_OBS})
        return counts

    def check_stats(self, stats, chunk_seed: int) -> None:
        if stats.total_violations != 0:
            self.fail(f"seed {chunk_seed}: {stats.total_violations} violations of proved relations")
        if stats.total_trials != FUZZ_CHUNK:
            self.fail(f"seed {chunk_seed}: total_trials {stats.total_trials} != {FUZZ_CHUNK}")
        got = {rid: rel.trials for rid, rel in stats.per_relation.items()}
        want = self.expected_counts(chunk_seed)
        if got != want:
            self.fail(f"seed {chunk_seed}: relation counts {got} != {want}")
        for rid, rel in stats.per_relation.items():
            if sum(rel.histogram) != rel.trials:
                self.fail(f"{rid}: histogram sums to {sum(rel.histogram)}, trials {rel.trials}")
            for what, m in (("min_margin", rel.min_margin), ("min_rel_margin", rel.min_rel_margin)):
                if not (math.isfinite(m) or m == math.inf):
                    self.fail(f"{rid}: {what} = {m} is neither finite nor the +inf sentinel")

    def finish(self) -> None:
        for rho, mats, pure in self.side:
            try:
                rep = skew.check_refined_rs(linalg.DensityMatrix.from_matrix(rho),
                                            skew.ObservableSet.from_matrices(mats))
            except linalg.SkewsharpError as exc:
                self.fail(f"side sample dim {rho.shape[0]}: check_refined_rs raised {exc!r}")
                continue
            sigma, delta, sk = ref.uncertainty_matrices(rho, mats, pure)
            tol = 1e-9 * max(1.0, float(np.abs(sigma).max()))
            for what, got, want in (("sigma", rep.sigma, sigma), ("delta", rep.delta, delta),
                                    ("skew", rep.skew, sk)):
                dev = _max_dev(got, want)
                if not dev <= tol:
                    self.fail(f"side sample dim {rho.shape[0]}: {what} off by {dev:.3e}")


# ----------------------------------------------------------------- CLI check

CLI_DIMS = range(2, 9)
CLI_PER_KIND = 3


class CliCheck(Workload):
    """``skewsharp check STATE OBS --two-obs --f LABEL --json-out REPORT`` over a seeded pool."""

    name = "cli-check"

    def prepare(self) -> None:
        self.pool = []
        for dim in CLI_DIMS:
            for pure in (True, False):
                for _ in range(CLI_PER_KIND):
                    k = len(self.pool)
                    rho = ref.ginibre_state(dim, pure, self.rng)
                    mats = [ref.gue(dim, self.rng), ref.gue(dim, self.rng)]
                    ref.write_state(self.path(f"state{k}.json"), rho)
                    ref.write_observables(self.path(f"obs{k}.json"), mats)
                    self.pool.append({"rho": rho, "mats": mats, "pure": pure,
                                      "f": F_LABELS[k % len(F_LABELS)]})

    def round(self, index: int, record) -> None:
        report = self.path("report.json")
        for k, inst in enumerate(self.pool):
            argv = ["check", self.path(f"state{k}.json"), self.path(f"obs{k}.json"),
                    "--two-obs", "--f", inst["f"], "--json-out", report]
            code, dt, _ = call_cli(argv)
            record(dt, 1, 0)
            self.check_report(k, inst, code, report)

    def check_report(self, k: int, inst: dict, code: int, report_path: str) -> None:
        if code != 0:
            self.fail(f"instance {k}: exit code {code}")
            return
        with open(report_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        bad = [r for r, v in rep["verdicts"].items() if v not in ("holds", "saturated")]
        if bad:
            self.fail(f"instance {k}: verdicts {bad} not holds/saturated")
        if "want" not in inst:
            inst["want"] = ref.uncertainty_matrices(inst["rho"], inst["mats"], inst["pure"])
        sigma, delta, sk = inst["want"]
        tol = 1e-9 * max(1.0, float(np.abs(sigma).max()))
        for what, want in (("sigma", sigma), ("delta", delta), ("skew", sk)):
            dev = _max_dev(rep["matrices"][what], want)
            if not dev <= tol:
                self.fail(f"instance {k}: {what} off by {dev:.3e}")
        d = rep["dets"]
        prod = d["sigma_plus_c"] * d["sigma_minus_c"]
        eq3 = prod - d["delta"] ** 2
        if not abs(rep["margins"]["eq3"] - eq3) <= 1e-12 * max(1.0, abs(prod), d["delta"] ** 2):
            self.fail(f"instance {k}: eq3 {rep['margins']['eq3']} != {eq3} from the dets")
        own = {"sigma_plus_c": np.linalg.det(2 * sigma - sk), "sigma_minus_c": np.linalg.det(sk),
               "delta": abs(np.linalg.det(delta))}
        for key, want in own.items():
            if not abs(d[key] - want) <= 1e-8 * max(1.0, abs(want)):
                self.fail(f"instance {k}: det {key} = {d[key]}, own {want}")
        if not np.array_equal(ref.decode_pairs(rep["state"]["matrix"]), inst["rho"]):
            self.fail(f"instance {k}: echoed state does not re-parse to the input")
        echoed = [ref.decode_pairs(m) for m in rep["observables"]["observables"]]
        if len(echoed) != 2 or not all(np.array_equal(a, b) for a, b in zip(echoed, inst["mats"])):
            self.fail(f"instance {k}: echoed observables do not re-parse to the input")


# ---------------------------------------------------------------- Fock space

class Thermal(Workload):
    """``skewsharp gaussian`` for uncoupled oscillators (omega = 1) with a JSON report.

    ``fault`` marks the op that fails on every run because fock_truncate_thermal
    gives the top Fock level half its energy; it counts as failed only with that
    signature: exit 1, saturated false, exact moments right, numeric sigma off.
    """

    modes = 1
    cutoff = 60
    beta = 1.0
    extra: tuple[str, ...] = ()
    fault = False
    ops_per_round = 1

    def round(self, index: int, record) -> None:
        report = self.path("gaussian.json")
        argv = ["gaussian", "--modes", str(self.modes), *self.extra,
                "--cutoff", str(self.cutoff), "--json-out", report]
        for _ in range(self.ops_per_round):
            code, dt, out = call_cli(argv)
            failed = self.fault and code == 1 and "saturated=false" in out
            record(dt, 1, int(failed))
            if code not in (0, 1) or (code == 1 and not failed):
                self.fail(f"exit code {code}: {out.strip()}")
                continue
            with open(report, encoding="utf-8") as fh:
                rep = json.load(fh)
            self.check_report(rep, failed)

    def check_report(self, rep: dict, failed: bool) -> None:
        sigma, c = ref.thermal_quadrature_moments(1.0, self.beta, self.modes)
        ex, num = rep["exact"], rep["numeric"]
        if not abs(ex["delta_G"]) <= 1e-10:
            self.fail(f"delta_G_exact = {ex['delta_G']}, Gaussian states saturate")
        for what, got, want in (("sigma", ex["sigma"], sigma), ("c", ex["classical"], c)):
            if not _max_dev(got, want) <= 1e-10:
                self.fail(f"exact {what} off the closed form by {_max_dev(got, want):.3e}")
        tol = ref.thermal_tolerance(1.0, self.beta, self.modes, self.cutoff)
        dev_sigma = _max_dev(num["sigma"], sigma)
        dev_c = _max_dev(num["classical"], c)
        if failed:
            if not dev_sigma > tol:
                self.fail(f"op failed but numeric sigma is within {tol:.1e} of the closed form")
            return
        if not (rep["saturated"] and dev_sigma <= tol and dev_c <= tol):
            self.fail(f"numeric sigma/c off the closed form by {dev_sigma:.3e}/{dev_c:.3e} "
                      f"(tolerance {tol:.1e}), saturated={rep['saturated']}")
        if not abs(num["delta_G"]) <= tol:
            self.fail(f"delta_G_numeric = {num['delta_G']} above {tol:.1e}")
        tail = ref.thermal_tail(1.0, self.beta, self.modes, self.cutoff)
        if not math.isclose(num["tail_mass"], tail, rel_tol=1e-6, abs_tol=1e-300):
            self.fail(f"tail_mass {num['tail_mass']} != closed form {tail}")


class Thermal1m60(Thermal):
    """The README example: one mode, beta = 1.3863, cutoff 60 (d = 60)."""

    name = "thermal-1m60"
    ops_per_round = 20
    beta = 1.3863
    extra = ("--omega", "1", "--beta", "1.3863")


class Thermal2m30(Thermal):
    """The CLI defaults omega = 1, beta = 1 on two modes, cutoff 30 (d = 900)."""

    name = "thermal-2m30"
    probe = "blas"
    modes = 2
    cutoff = 30
    fault = True


NONGAUSS_CUTOFF = 30
NONGAUSS_SUPPORT = 4


class Nongauss2m30(Workload):
    """``skewsharp nongauss STATE --modes 2 --cutoff 30`` on |1,0> and a seeded
    Fock-diagonal mixture over n1, n2 < NONGAUSS_SUPPORT (d = 900, ~11 MB files)."""

    name = "nongauss-2m30"
    probe = "blas"

    def prepare(self) -> None:
        K = NONGAUSS_CUTOFF
        fock10 = np.zeros((K, K))
        fock10[1, 0] = 1.0
        mixed = np.zeros((K, K))
        mixed[:NONGAUSS_SUPPORT, :NONGAUSS_SUPPORT] = self.rng.uniform(
            0.2, 1.0, (NONGAUSS_SUPPORT, NONGAUSS_SUPPORT))
        mixed /= mixed.sum()
        self.states = []
        for label, p in (("fock10", fock10), ("mixed", mixed)):
            path = self.path(f"{label}.json")
            ref.write_state(path, np.diag(p.ravel()).astype(complex))
            self.states.append((label, path, p))

    def round(self, index: int, record) -> None:
        for label, path, p in self.states:
            argv = ["nongauss", path, "--modes", "2", "--cutoff", str(NONGAUSS_CUTOFF)]
            code, dt, out = call_cli(argv)
            record(dt, 1, 0)
            match = re.search(r"delta_G=(\S+)", out)
            if code != 0 or match is None:
                self.fail(f"{label}: exit code {code}, output {out.strip()!r}")
                continue
            want = ref.fock_diagonal_gap(p)
            got = float(match.group(1))
            if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
                self.fail(f"{label}: delta_G = {got}, closed form {want}")


WORKLOADS = {w.name: w for w in (FuzzGate, CliCheck, Thermal1m60, Thermal2m30, Nongauss2m30)}
