import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skewsharp.cli import build_parser, main
from skewsharp.serialize import dumps, matrix_to_pairs

from conftest import SX, SY


def write_q1(tmp_path):
    state = {"dim": 2, "matrix": matrix_to_pairs(np.diag([0.75, 0.25]).astype(complex)),
             "label": "q1"}
    obs = {"dim": 2, "observables": [matrix_to_pairs(SX), matrix_to_pairs(SY)],
           "labels": ["sx", "sy"]}
    sp = tmp_path / "state.json"
    op = tmp_path / "obs.json"
    sp.write_text(dumps(state))
    op.write_text(dumps(obs))
    return str(sp), str(op)


def fock_state_file(tmp_path, level, cutoff, name="fock.json"):
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    rho[level, level] = 1.0
    path = tmp_path / name
    path.write_text(dumps({"dim": cutoff, "matrix": matrix_to_pairs(rho)}))
    return str(path)


# ------------------------------------------------------------------- check

def test_check_q1_saturated(tmp_path, capsys):
    sp, op = write_q1(tmp_path)
    out = str(tmp_path / "report.json")
    code = main(["check", sp, op, "--two-obs", "--f", "wy", "--json-out", out])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdicts"]["eq3"] == "saturated"
    assert report["verdicts"]["eq9a"] == "saturated"
    assert report["verdicts"]["eq19"] == "saturated"
    assert abs(report["delta_G"]) <= 1e-10
    assert report["dets"]["delta"] == pytest.approx(0.25)
    assert "rs" in capsys.readouterr().out


def test_check_round_trip_reproduces_margins(tmp_path):
    sp, op = write_q1(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["check", sp, op, "--json-out", out]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    # echoed matrices re-parse and reproduce the identical margins bit for bit
    sp2 = tmp_path / "state2.json"
    op2 = tmp_path / "obs2.json"
    sp2.write_text(dumps(report["state"]))
    op2.write_text(dumps(report["observables"]))
    out2 = str(tmp_path / "report2.json")
    assert main(["check", str(sp2), str(op2), "--json-out", out2]) == 0
    report2 = json.loads((tmp_path / "report2.json").read_text())
    assert report2["margins"] == report["margins"]
    assert report2["dets"] == report["dets"]


def test_check_bad_trace_exit2(tmp_path, capsys):
    bad = {"dim": 2, "matrix": matrix_to_pairs(np.diag([0.7, 0.2]).astype(complex))}
    sp = tmp_path / "bad.json"
    sp.write_text(dumps(bad))
    _, op = write_q1(tmp_path)
    assert main(["check", str(sp), op]) == 2
    assert "trace" in capsys.readouterr().err


def test_check_nonhermitian_exit2(tmp_path, capsys):
    bad = {"dim": 2, "matrix": [[[0.5, 0], [0.3, 0.1]], [[0.0, 0.0], [0.5, 0]]]}
    sp = tmp_path / "nh.json"
    sp.write_text(dumps(bad))
    _, op = write_q1(tmp_path)
    assert main(["check", str(sp), op]) == 2
    assert "Hermitian" in capsys.readouterr().err


def test_check_dim_mismatch_exit2(tmp_path, capsys):
    sp, _ = write_q1(tmp_path)
    obs3 = {"dim": 3, "observables": [matrix_to_pairs(np.eye(3, dtype=complex))]}
    op = tmp_path / "obs3.json"
    op.write_text(dumps(obs3))
    assert main(["check", sp, str(op)]) == 2
    assert "dim mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["state", "observables"])
@pytest.mark.parametrize("dim", [[2], 2.9, 2.0, True, False, None, "2", {"d": 2}])
def test_check_dim_must_be_an_integer(tmp_path, capsys, which, dim):
    sp, op = write_q1(tmp_path)
    path = sp if which == "state" else op
    with open(path) as fh:
        data = json.load(fh)
    data["dim"] = dim
    with open(path, "w") as fh:
        json.dump(data, fh)   # json writes 2.0 as 2.0; dumps writes it as 2
    assert main(["check", sp, op]) == 2
    assert f"error: {which}: 'dim' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("observables", [5, "sx", None, {"0": 1}, []])
def test_check_observables_must_be_a_nonempty_list(tmp_path, capsys, observables):
    sp, op = write_q1(tmp_path)
    with open(op, "w") as fh:
        fh.write(dumps({"dim": 2, "observables": observables}))
    assert main(["check", sp, op]) == 2
    assert "'observables' must be a non-empty list" in capsys.readouterr().err


def test_check_unknown_f_exit2(tmp_path, capsys):
    sp, op = write_q1(tmp_path)
    assert main(["check", sp, op, "--f", "wyd:0.7"]) == 2
    assert "wyd" in capsys.readouterr().err


def test_check_wyd03_skips_strongest_with_note(tmp_path):
    sp, op = write_q1(tmp_path)
    out = str(tmp_path / "r.json")
    assert main(["check", sp, op, "--f", "wyd:0.3", "--json-out", out]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert "wy-strongest" not in report["margins"]
    assert report["notes"]
    assert report["verdicts"]["eq18"] != "violated"


def test_check_exit1_on_forced_violation(tmp_path, monkeypatch):
    import skewsharp.cli as cli_mod

    real = cli_mod.context_margins
    sp, op = write_q1(tmp_path)
    out = str(tmp_path / "r.json")
    # a negative margin, and the non-finite ones that must never pass
    for bad in (-1.0, math.nan, -math.inf):
        def broken(ctx, groups, fs):
            return [(rid, fl, bad if rid == "rs" else m, sc)
                    for rid, fl, m, sc in real(ctx, groups, fs)]

        monkeypatch.setattr(cli_mod, "context_margins", broken)
        assert main(["check", sp, op, "--json-out", out]) == 1, bad
        assert json.loads((tmp_path / "r.json").read_text())["verdicts"]["rs"] == "violated"


def test_check_report_matches_trial_margins(tmp_path):
    # the CLI and the fuzz harness read one registry: same rows, bit for bit
    from skewsharp.fuzz import trial_margins
    from skewsharp.gcov import resolve_monotone
    from skewsharp.linalg import DensityMatrix
    from skewsharp.skew import ObservableSet

    groups = ("rs", "refined", "weak-chain", "two-obs", "g-psd", "eq18", "eq19", "wy-strongest")
    rng = np.random.default_rng(2024)
    for k, (dim, rank) in enumerate([(2, 2), (3, 1), (4, 4)]):
        G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        M = G @ G.conj().T
        M /= np.trace(M).real
        mats = [(H + H.conj().T) / 2 for H in
                (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                 for _ in range(2))]
        sp, op = tmp_path / f"s{k}.json", tmp_path / f"o{k}.json"
        sp.write_text(dumps({"dim": dim, "matrix": matrix_to_pairs(M)}))
        op.write_text(dumps({"dim": dim, "observables": [matrix_to_pairs(m) for m in mats]}))
        rho, X = DensityMatrix.from_matrix(M), ObservableSet.from_matrices(mats)
        for label in ("wy", "sld", "wyd:0.3"):
            out = tmp_path / "r.json"
            assert main(["check", str(sp), str(op), "--two-obs", "--f", label,
                         "--json-out", str(out)]) == 0
            report = json.loads(out.read_text())
            rows = trial_margins(rho, X, groups, [resolve_monotone(label)])
            assert report["margins"] == {rid: m for rid, _, m, _ in rows}
            assert report["scales"] == {rid: s for rid, _, _, s in rows}
            assert ("wy-strongest" in report["margins"]) == (label != "wyd:0.3")


# ------------------------------------------------------------------ lambda

def test_lambda_outputs(capsys):
    assert main(["lambda", "--f", "sld"]) == 0
    line = capsys.readouterr().out.strip()
    fields = dict(kv.split("=") for kv in line.split())
    assert abs(float(fields["lambda"]) - 0.5) <= 1e-9
    assert fields["conjecture_match"] == "true"

    assert main(["lambda", "--f", "wy"]) == 0
    line = capsys.readouterr().out.strip()
    assert abs(float(line.split()[0].split("=")[1]) - 1.0) <= 1e-9

    assert main(["lambda", "--f", "wyd:0.3"]) == 0
    line = capsys.readouterr().out.strip()
    assert abs(float(line.split()[0].split("=")[1]) - 1.0) <= 1e-6


def test_lambda_unknown_label(capsys):
    assert main(["lambda", "--f", "qfi"]) == 2


def test_lambda_grid_dump(tmp_path):
    path = tmp_path / "grid.csv"
    assert main(["lambda", "--f", "sld", "--grid-dump", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,F"
    assert len(lines) == 4098


# ---------------------------------------------------------------- gaussian

def test_gaussian_thermal_fixture(tmp_path, capsys):
    beta = str(math.log(4.0))
    out = str(tmp_path / "g.json")
    code = main(["gaussian", "--modes", "1", "--omega", "1", "--beta", beta,
                 "--cutoff", "60", "--json-out", out])
    assert code == 0
    report = json.loads((tmp_path / "g.json").read_text())
    assert abs(report["exact"]["delta_G"]) <= 1e-10
    assert abs(report["numeric"]["delta_G"]) <= 1e-6
    assert np.allclose(report["exact"]["sigma"], np.diag([5 / 6, 5 / 6]))


def test_gaussian_vacuum_limit(capsys):
    assert main(["gaussian", "--modes", "1", "--omega", "1", "--beta", "1e9",
                 "--cutoff", "16"]) == 0
    out = capsys.readouterr().out
    assert "saturated=true" in out


def test_gaussian_two_modes(capsys):
    assert main(["gaussian", "--modes", "2", "--omega", "1", "--omega", "1.5",
                 "--coupling", "0.2", "--beta", "1.2", "--cutoff", "12"]) == 0


def test_gaussian_squeezed_large_beta_saturates(capsys):
    # beta rho(N) = 21.7: the moments an expm of -beta N gave broke C^T - C = J by 1.7e-8 (exit 2)
    assert main(["gaussian", "--modes", "1", "--omega", "1", "--xi", "0.5", "--beta", "25",
                 "--cutoff", "40"]) == 0
    assert "saturated=true" in capsys.readouterr().out


def test_gaussian_small_cutoff_exit2(capsys):
    assert main(["gaussian", "--modes", "1", "--beta", "1.0", "--cutoff", "4"]) == 2


def test_gaussian_one_mode_rejects_coupling(capsys):
    # a beamsplitter needs two modes: --coupling on one mode is an input error, not ignored
    assert main(["gaussian", "--modes", "1", "--coupling", "0.7", "--cutoff", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --coupling needs --modes 2\n"
    assert main(["gaussian", "--modes", "1", "--coupling", "0", "--cutoff", "20"]) == 0


@pytest.mark.parametrize("argv, message", [
    (["--modes", "1", "--beta", "inf", "--cutoff", "8"], "beta must be positive and finite, got inf"),
    (["--modes", "1", "--omega", "nan", "--cutoff", "8"], "S has non-finite entries"),
    (["--modes", "2", "--xi", "inf", "--cutoff", "8"], "S has non-finite entries"),
])
def test_gaussian_non_finite_generator_exit2(argv, message, capsys):
    # rejected when the generator is built, before any moment or Fock numerics
    assert main(["gaussian", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, low", [
    (["--modes", "2", "--omega", "1", "--omega", "-1", "--cutoff", "10"], "-1"),
    (["--modes", "1", "--omega", "-1", "--cutoff", "8"], "-1"),
    (["--modes", "1", "--omega", "0", "--cutoff", "8"], "0"),
    (["--modes", "1", "--xi", "1.5", "--cutoff", "8"], "-0.5"),
])
def test_gaussian_without_a_thermal_state_exit2(argv, low, capsys):
    # these generators are unbounded below (a negative or zero normal mode): there is no
    # thermal state to saturate the relation, so no report is made
    assert main(["gaussian", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no thermal state: S Pi (the Bogoliubov matrix) has min eigenvalue {low} <= 0\n"


@pytest.mark.parametrize("argv, tail", [
    (["--modes", "2", "--omega", "1", "--omega", "1", "--coupling", "0.9999", "--cutoff", "8"], "9992.5"),
    (["--modes", "1", "--omega", "0.05", "--cutoff", "20"], "7.54306"),
])
def test_gaussian_tail_of_one_or_more_exit2(argv, tail, capsys, monkeypatch):
    # the tail mass is relative to each mode's ground weight: from 1 upward the truncation may
    # drop more than it keeps, so no verdict is made and no Fock work is done (the coupled run
    # once read saturated=true with delta_G_numeric = 0.0825)
    import skewsharp.cli

    def no_fock_work(*args):
        raise AssertionError("saturation_check ran")

    monkeypatch.setattr(skewsharp.cli, "saturation_check", no_fock_work)
    assert main(["gaussian", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: thermal tail mass {tail} at cutoff {argv[-1]} is not below 1: the truncation "
                            "may drop more weight than it keeps; use a larger --cutoff\n")


# ---------------------------------------------------------------- nongauss

def test_nongauss_fock_one(tmp_path, capsys):
    path = fock_state_file(tmp_path, level=1, cutoff=20)
    assert main(["nongauss", path, "--modes", "1", "--cutoff", "20"]) == 0
    out = capsys.readouterr().out.strip()
    value = float(out.split("=")[1])
    assert abs(value - 5.0) <= 1e-8


def test_nongauss_vacuum(tmp_path, capsys):
    path = fock_state_file(tmp_path, level=0, cutoff=16)
    assert main(["nongauss", path, "--modes", "1", "--cutoff", "16"]) == 0
    assert abs(float(capsys.readouterr().out.split("=")[1])) <= 1e-10


def test_nongauss_dim_mismatch(tmp_path, capsys):
    path = fock_state_file(tmp_path, level=0, cutoff=16)
    assert main(["nongauss", path, "--modes", "1", "--cutoff", "20"]) == 2


@pytest.mark.parametrize("modes", ["0", "-1"])
def test_nongauss_modes_below_one_exit2(tmp_path, capsys, modes):
    path = fock_state_file(tmp_path, level=0, cutoff=1)
    assert main(["nongauss", path, "--modes", modes, "--cutoff", "5"]) == 2
    assert f"need at least 1 mode, got {modes}" in capsys.readouterr().err


@pytest.mark.parametrize("dim, modes, cutoff", [(1, "2", "-1"), (4, "2", "-2"), (16, "2", "0"), (1, "2", "1")])
def test_nongauss_cutoff_below_two_exit2(tmp_path, capsys, dim, modes, cutoff):
    # (-1)^2 = 1 and (-2)^2 = 4 once passed the size check, and cutoff 0 read "cutoff^n_modes = 0"
    path = fock_state_file(tmp_path, level=0, cutoff=dim)
    assert main(["nongauss", path, "--modes", modes, "--cutoff", cutoff]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: cutoff must be >= 2, got {cutoff}\n"


def test_gaussian_negative_cutoff_reports_the_bound(capsys, monkeypatch):
    # the bound, not a tail mass "at cutoff -3", and before the generator or the tail is formed
    import skewsharp.cli

    def no_step(*args):
        raise AssertionError("a step ran before the cutoff check")

    monkeypatch.setattr(skewsharp.cli, "thermal_tail_mass", no_step)
    monkeypatch.setattr(skewsharp.cli, "_build_generator", no_step)
    assert main(["gaussian", "--cutoff", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: cutoff must be >= 8, got -3\n"


def test_nongauss_size_checked_before_the_state_eigh(tmp_path, capsys, monkeypatch):
    from skewsharp import linalg

    def no_eigh(*args, **kwargs):
        raise AssertionError("state validated before the size check")

    path = fock_state_file(tmp_path, level=0, cutoff=16)
    monkeypatch.setattr(linalg, "validate_states", no_eigh)
    monkeypatch.setattr(linalg, "_hermitian_nonzeros", no_eigh)      # the per-parity route
    assert main(["nongauss", path, "--modes", "2", "--cutoff", "5"]) == 2
    assert "error: state dim 16 != cutoff^n_modes = 25" in capsys.readouterr().err


def test_nongauss_large_file_matches_json_path(tmp_path, capsys, monkeypatch):
    # d = 144 (2 modes, cutoff 12): the file is above the reader's size constant
    rho = np.zeros((12, 12))
    rho[1, 0], rho[0, 2], rho[3, 3] = 0.5, 0.25, 0.25
    path = tmp_path / "mixed.json"
    path.write_text(dumps({"dim": 144, "matrix": matrix_to_pairs(np.diag(rho.ravel()))}))
    from skewsharp import serialize
    assert path.stat().st_size > serialize.MATRIX_ROUTE_MIN_CHARS
    argv = ["nongauss", str(path), "--modes", "2", "--cutoff", "12"]
    assert main(argv) == 0
    routed = capsys.readouterr().out
    monkeypatch.setattr(serialize, "MATRIX_ROUTE_MIN_CHARS", path.stat().st_size)
    assert main(argv) == 0
    assert capsys.readouterr().out == routed


@pytest.mark.parametrize("command", ["check", "nongauss"])
@pytest.mark.parametrize("defect", ["byte order mark", "invalid byte"])
def test_large_state_file_decoding_errors_exit2(tmp_path, capsys, command, defect):
    # files are read as text: json.loads(bytes) would accept the BOM that a str rejects
    from skewsharp import serialize

    rho = np.zeros(144)
    rho[0] = 1.0
    text = dumps({"dim": 144, "matrix": matrix_to_pairs(np.diag(rho))})
    data = text.encode()
    if defect == "byte order mark":
        data = "\ufeff".encode() + data
        want = "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    else:
        data = data[:1000] + b"\xff" + data[1000:]
        want = "error: 'utf-8' codec can't decode byte 0xff in position 1000: invalid start byte"
    state = tmp_path / "state.json"
    state.write_bytes(data)
    assert len(text) > serialize.MATRIX_ROUTE_MIN_CHARS
    obs = tmp_path / "obs.json"
    obs.write_text(dumps({"dim": 144, "observables": [matrix_to_pairs(np.eye(144))]}))
    argv = (["check", str(state), str(obs)] if command == "check"
            else ["nongauss", str(state), "--modes", "2", "--cutoff", "12"])
    assert main(argv) == 2
    assert capsys.readouterr().err == want + "\n"


def _nongauss_states():
    rng = np.random.default_rng(4)
    cat = np.zeros(144, dtype=complex)               # (|0,0> + |0,1> + i|1,1>)/sqrt(3)
    cat[[0, 1, 13]] = np.array([1, 1, 1j]) / math.sqrt(3)
    breaking = 0.5 * np.outer(cat, cat.conj()) + 0.5 * np.diag(rng.dirichlet(np.ones(144)))
    keeping = np.zeros((144, 144), dtype=complex)     # a random state on each parity block
    parity = np.add.outer(np.arange(12), np.arange(12)).ravel() % 2
    for p in (0, 1):
        rows = np.flatnonzero(parity == p)
        G = rng.standard_normal((rows.size, 6)) + 1j * rng.standard_normal((rows.size, 6))
        keeping[np.ix_(rows, rows)] = G @ G.conj().T
    return {"breaking": breaking, "keeping": keeping / np.trace(keeping).real}


@pytest.mark.parametrize("kind", ["breaking", "keeping"])
def test_nongauss_matches_the_dense_library_route(tmp_path, capsys, kind):
    # d = 144 (2 modes, cutoff 12); both files are above the reader's size constant, so
    # on the parity-keeping one the vectorized reader and the block route run together
    from skewsharp import gaussian, serialize
    from skewsharp.linalg import DensityMatrix

    M = _nongauss_states()[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(dumps({"dim": 144, "matrix": matrix_to_pairs(M)}))
    read = serialize.loads(path.read_text())["matrix"]
    assert isinstance(read, np.ndarray)
    assert (gaussian.fock_density(serialize.pairs_to_matrix(read), 2, 12).parts is None) == (kind == "breaking")
    assert main(["nongauss", str(path), "--modes", "2", "--cutoff", "12"]) == 0
    dense = gaussian.nongaussianity(DensityMatrix.from_matrix(M), 2, 12)
    assert capsys.readouterr().out == f"delta_G={dense:#.12g}\n"


# -------------------------------------------------------------------- fuzz

def test_fuzz_small_run(tmp_path, capsys):
    out = str(tmp_path / "stats.json")
    code = main(["fuzz", "--trials", "40", "--seed", "7", "--dims", "2,3",
                 "--n-obs", "1,2", "--json-out", out])
    assert code == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["total_violations"] == 0
    assert stats["total_trials"] == 40


def test_fuzz_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["fuzz", "--trials", "25", "--seed", "42", "--dims", "2,3",
            "--n-obs", "1,2", "--relations", "rs,refined"]
    assert main(argv + ["--json-out", a]) == 0
    assert main(argv + ["--json-out", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_fuzz_zero_trials_exit2(capsys):
    assert main(["fuzz", "--trials", "0"]) == 2


def test_fuzz_negative_seed_is_a_config_error(capsys):
    assert main(["fuzz", "--trials", "5", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["fuzz", "--not-a-flag"])
    assert err.value.code == 2


def test_parser_built_once_and_reused(tmp_path, capsys):
    assert build_parser() is build_parser()
    sp, op = write_q1(tmp_path)
    first = build_parser().parse_args(["check", sp, op, "--two-obs", "--f", "wy"])
    second = build_parser().parse_args(["check", sp, op])
    assert first.two_obs and first.f == "wy"
    assert not second.two_obs and second.f is None
    assert main(["check", sp, op, "--two-obs"]) == 0 and main(["check", sp, op]) == 0
    out = capsys.readouterr().out
    assert out.count("eq9a:") == 1


def test_command_rebound_after_parser_is_built(monkeypatch, tmp_path):
    from skewsharp import cli

    sp, op = write_q1(tmp_path)
    assert main(["check", sp, op]) == 0
    monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
    assert main(["check", sp, op]) == 7


def test_env_var_overrides_tolerance(monkeypatch, tmp_path):
    from skewsharp.cli import _violation_tol

    monkeypatch.delenv("SKEWSHARP_TOL", raising=False)
    assert _violation_tol(None) == 1e-8
    monkeypatch.setenv("SKEWSHARP_TOL", "1e-6")
    assert _violation_tol(None) == 1e-6
    assert _violation_tol(1e-4) == 1e-4  # explicit --tol wins
    sp, op = write_q1(tmp_path)
    out = str(tmp_path / "r.json")
    assert main(["check", sp, op, "--json-out", out]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["tolerances"]["violation"] == 1e-6


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-12"])
def test_out_of_range_tolerance_is_a_config_error(monkeypatch, tmp_path, capsys, tol):
    # NaN would report every relation violated, inf would pass every violation,
    # and a negative tolerance turns the margin 0.75 of rs into a violation
    monkeypatch.delenv("SKEWSHARP_TOL", raising=False)
    sp, op = write_q1(tmp_path)
    assert main(["check", sp, op, f"--tol={tol}"]) == 2
    assert main(["fuzz", "--trials", "5", f"--tol={tol}"]) == 2
    monkeypatch.setenv("SKEWSHARP_TOL", tol)
    assert main(["check", sp, op]) == 2
    assert main(["fuzz", "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: violation tolerance must be finite and >= 0") == 4


def test_zero_tolerance_is_valid(monkeypatch, tmp_path):
    from skewsharp.cli import _violation_tol
    from skewsharp.fuzz import FuzzConfig

    monkeypatch.setenv("SKEWSHARP_TOL", "0")
    assert _violation_tol(None) == 0.0
    assert _violation_tol(0.0) == 0.0
    assert FuzzConfig(tol=0.0).to_dict()["tol"] == 0.0
    # I/2 with sx, sy: sigma = I and delta = 0, so rs holds with margin 1
    mixed = {"dim": 2, "matrix": matrix_to_pairs(np.eye(2, dtype=complex) / 2)}
    obs = {"dim": 2, "observables": [matrix_to_pairs(SX), matrix_to_pairs(SY)]}
    sp, op, out = tmp_path / "s.json", tmp_path / "o.json", tmp_path / "r.json"
    sp.write_text(dumps(mixed))
    op.write_text(dumps(obs))
    main(["check", str(sp), str(op), "--tol", "0", "--json-out", str(out)])
    report = json.loads(out.read_text())
    assert report["tolerances"]["violation"] == 0.0
    assert report["margins"]["rs"] == pytest.approx(1.0)
    assert report["verdicts"]["rs"] == "holds"


@pytest.mark.parametrize("flags, options", [
    ([], {None}),
    (["--two-obs"], {None, "--two-obs"}),
    (["--f", "wy"], {None, "--f"}),
    (["--two-obs", "--f", "sld"], {None, "--two-obs", "--f"}),
])
def test_check_evaluates_the_records_its_options_select(tmp_path, monkeypatch, flags, options):
    import dataclasses

    import skewsharp.cli as cli_mod
    import skewsharp.fuzz as fz

    calls = []

    def spy(r):
        def evaluate(ctx, f):
            calls.append(r.rid)
            return r.evaluate(ctx, f)
        return dataclasses.replace(r, evaluate=evaluate)

    table = tuple(spy(r) for r in fz.RELATIONS)
    monkeypatch.setattr(fz, "RELATIONS", table)
    monkeypatch.setattr(cli_mod, "RELATIONS", table)
    sp, op = write_q1(tmp_path)
    out = tmp_path / "r.json"
    assert main(["check", sp, op, "--json-out", str(out), *flags]) == 0
    expected = [r.rid for r in table if r.check in options]
    assert calls == expected
    assert list(json.loads(out.read_text())["margins"]) == expected
    if len(options) == 3:
        assert calls == ["rs", "eq3", "eq4a", "eq4b", "eq7-psd", "eq8-schur", "eq9a", "eq9b", "eq10",
                         "furuichi", "eq16", "eq17", "eq18", "eq19", "wy-strongest"]


# ------------------------------------------------------------ entry point

def test_cli_import_loads_no_scipy():
    # SciPy is a test dependency only; importing it would double the CLI's start-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import skewsharp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_runs(tmp_path):
    sp, op = write_q1(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "skewsharp.cli", "check", sp, op],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "eq3" in proc.stdout
