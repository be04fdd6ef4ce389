"""Command-line interface: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from math import sqrt
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nonshare import behaviors, extlp, npa
from nonshare.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, EXIT_VERIFY, main
from nonshare.frontier import TSIRELSON, s13_max


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def test_frontier_csv(tmp_path):
    code, out = run_to_file(tmp_path, "frontier.csv", ["frontier", "--points", "5"])
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,s13_max,omega12,omega13_max,gamma_plus"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[-1] == 0.0
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(TSIRELSON, abs=1e-6)
    assert last[-1] == pytest.approx(1.0 / (2.0 * sqrt(2.0)), abs=1e-6)
    gammas = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert gammas == sorted(gammas)


def test_frontier_json_and_custom_range(tmp_path):
    code, out = run_to_file(
        tmp_path, "frontier.json",
        ["frontier", "--s-min", "2.0", "--s-max", "2.5", "--points", "3",
         "--format", "json"],
    )
    assert code == EXIT_OK
    rows = json.loads(out.read_text())
    assert [r["s"] for r in rows] == pytest.approx([2.0, 2.25, 2.5])
    assert rows[0]["gamma_plus"] == 0.0
    assert rows[2]["gamma_plus"] > 0.0


def test_frontier_rejects_bad_range(capsys):
    assert main(["frontier", "--s-min", "2.5", "--s-max", "2.0"]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert main(["frontier", "--points", "1"]) == EXIT_INPUT
    assert main(["frontier", "--s-max", "3.0"]) == EXIT_INPUT
    # one ulp above 2 sqrt(2) fails on the flag's own range, not deep in frontier.certify
    capsys.readouterr()
    assert main(["frontier", "--points", "3", "--s-max", "2.8284271247461907"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: frontier range must satisfy 0 <= s-min < s-max <= 2*sqrt(2)\n")


def test_frontier_rerun_is_byte_identical(tmp_path):
    _, out1 = run_to_file(tmp_path, "a.csv", ["frontier", "--points", "50"])
    _, out2 = run_to_file(tmp_path, "b.csv", ["frontier", "--points", "50"])
    assert out1.read_bytes() == out2.read_bytes()


def test_certify_from_score(tmp_path):
    code, out = run_to_file(tmp_path, "cert.json", ["certify", "--s12", "2.5"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["regime"] == "certified"
    assert payload["provenance"] == "analytic"
    assert payload["s13_max"] == pytest.approx(sqrt(1.75), abs=1e-12)
    code, out = run_to_file(tmp_path, "cert2.json", ["certify", "--s12", "1.0"])
    assert json.loads(out.read_text())["regime"] == "below_local"


def test_certify_argument_errors(capsys, tmp_path):
    assert main(["certify"]) == EXIT_INPUT
    assert main(["certify", "--s12", "3.0"]) == EXIT_INPUT
    trials = tmp_path / "t.csv"
    trials.write_text("x,y,a,b\n0,0,1,1\n")
    assert main(["certify", "--s12", "2.0", "--trials", str(trials)]) == EXIT_INPUT
    assert main(["certify", "--trials", str(tmp_path / "missing.csv")]) == EXIT_INPUT
    capsys.readouterr()
    for text in ("x,y,a,b\n", "x,y,a,b\n0,0,1,99999999999999999999\n"):
        trials.write_text(text)
        for estimator in ("correlator_wise", "single_trial"):
            argv = ["certify", "--trials", str(trials), "--estimator", estimator]
            assert main(argv) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("input error: ")


def test_simulate_then_certify(tmp_path):
    code, trials = run_to_file(
        tmp_path, "trials.csv",
        ["simulate", "--strategy", "werner:0.9", "--n", "4000", "--seed", "3"],
    )
    assert code == EXIT_OK
    assert trials.read_text().startswith("x,y,a,b\n")
    code, cert = run_to_file(
        tmp_path, "cert.json",
        ["certify", "--trials", str(trials), "--alpha", "0.05"],
    )
    assert code == EXIT_OK
    payload = json.loads(cert.read_text())
    assert payload["estimator"] == "correlator_wise"
    assert payload["confidence"] == 0.95
    assert payload["s_hat"] == pytest.approx(TSIRELSON * 0.9, abs=0.15)
    code, cert2 = run_to_file(
        tmp_path, "cert2.json",
        ["certify", "--trials", str(trials), "--alpha", "0.05",
         "--estimator", "single_trial"],
    )
    assert json.loads(cert2.read_text())["estimator"] == "single_trial"


PEAK_SCRIPT = ("import resource, sys\n"
               "from nonshare.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")


def child_peak_kb(tmp_path, expected_code, *argv):
    """Peak RSS in KiB of one `main(argv)` in a fresh interpreter, and its stderr."""
    proc = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, *argv, "--out",
                           str(tmp_path / "out")], capture_output=True, text=True, timeout=300)
    code, kb = proc.stdout.split()
    assert int(code) == expected_code, proc.stderr
    return int(kb), proc.stderr


def test_certify_trials_memory_does_not_grow_with_the_file(tmp_path):
    # `certify --trials` reads its file in blocks into the count table; one
    # that held the 9 MB file, its lines and its columns at once peaked about
    # 148 MB above `frontier` in the same interpreter
    trials = tmp_path / "trials.csv"
    argv = ["simulate", "--strategy", "werner:0.9", "--n", "1000000", "--seed", "7"]
    assert run_to_file(tmp_path, "trials.csv", argv)[0] == EXIT_OK
    # the same trials with the second row malformed: the reader still reads to the end
    header, first, second, rest = trials.read_bytes().split(b"\n", 3)
    broken = tmp_path / "broken.csv"
    broken.write_bytes(b"\n".join([header, first, second + b",1", rest]))
    base = child_peak_kb(tmp_path, EXIT_OK, "frontier", "--points", "5")[0]
    kb = child_peak_kb(tmp_path, EXIT_OK, "certify", "--trials", str(trials))[0]
    assert kb - base < 64 * 1024
    kb, err = child_peak_kb(tmp_path, EXIT_INPUT, "certify", "--trials", str(broken))
    assert err == f"input error: malformed trial row: {(second + b',1').decode()!r}\n"
    assert kb - base < 64 * 1024


def test_simulate_memory_stays_flat(tmp_path):
    # the sampler's columns and temporaries peak about 50 MB above `frontier`,
    # with the CSV written in blocks of rows; the whole 9 MB text of 1e6
    # trials with its row codes reached about 65 MB, and a sampler whose
    # temporaries are int64 columns instead of boolean masks about 73 MB
    base = child_peak_kb(tmp_path, EXIT_OK, "frontier", "--points", "5")[0]
    argv = ("simulate", "--strategy", "werner:0.9", "--n", "1000000", "--seed", "7")
    assert child_peak_kb(tmp_path, EXIT_OK, *argv)[0] - base < 70 * 1024


def test_certify_trials_quotes_only_the_start_of_a_long_malformed_row(capsys, tmp_path):
    # quoted whole, a row of over 1 MB would make a 1 MB line on stderr
    trials = tmp_path / "long.csv"
    row = "0,0,1,1," + "1" * (1 << 20)
    trials.write_text(f"x,y,a,b\n0,0,1,1\n{row}\n1,1,-1,1\n")
    assert main(["certify", "--trials", str(trials)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"input error: malformed trial row: {row[:80]!r}... ({len(row)} characters)\n"
    assert len(err.encode()) < 200


def test_simulate_determinism_and_lhv_source(tmp_path):
    argv = ["simulate", "--strategy", "bell", "--n", "300", "--seed", "11"]
    _, out1 = run_to_file(tmp_path, "s1.csv", argv)
    _, out2 = run_to_file(tmp_path, "s2.csv", argv)
    assert out1.read_bytes() == out2.read_bytes()
    resp = np.zeros((1, 2, 2))
    resp[0, :, 0] = 1.0
    model = behaviors.LhvModel(weights=np.array([1.0]), responses=(resp, resp))
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(behaviors.lhv_model_to_json(model)))
    code, out = run_to_file(
        tmp_path, "lhv.csv",
        ["simulate", "--strategy", f"lhv:{model_file}", "--n", "50", "--seed", "1"],
    )
    assert code == EXIT_OK
    rows = out.read_text().strip().split("\n")[1:]
    assert all(row.endswith("1,1") for row in rows)  # constant outputs


def test_simulate_strategy_errors(capsys, tmp_path):
    assert main(["simulate", "--strategy", "ghz", "--n", "10"]) == EXIT_INPUT
    assert main(["simulate", "--strategy", "werner:1.5", "--n", "10"]) == EXIT_INPUT
    missing = tmp_path / "none.json"
    assert main(["simulate", "--strategy", f"lhv:{missing}", "--n", "10"]) == EXIT_INPUT
    capsys.readouterr()
    malformed = tmp_path / "bad.json"
    three_outcomes = {
        "weights": [1.0],
        "responses": [[[[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]]], [[[0.1, 0.1, 0.8], [0.5, 0.25, 0.25]]]],
    }
    three_inputs = {
        "weights": [1.0],
        "responses": [[[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]], [[[1.0, 0.0], [0.0, 1.0]]]],
    }
    # json reads NaN, which fails every comparison in the probability checks
    nan_rule = {
        "weights": [float("nan")],
        "responses": [[[[1.0, 0.0], [1.0, 0.0]]], [[[float("nan"), 0.0], [1.0, 0.0]]]],
    }
    nan_weight = {
        "weights": [0.5, float("nan")],
        "responses": [[[[1.0, 0.0], [1.0, 0.0]]] * 2, [[[1.0, 0.0], [1.0, 0.0]]] * 2],
    }
    payloads = ({"weights": [1.0]}, [1, 2], three_outcomes, three_inputs, nan_rule, nan_weight)
    for payload in payloads:
        malformed.write_text(json.dumps(payload))
        assert main(["simulate", "--strategy", f"lhv:{malformed}", "--n", "10"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["frontier", "--s-min", "2.0", "--points", "50"], "frontier_s2_50.csv"),
        (["frontier", "--format", "json", "--points", "20"], "frontier_20.json"),
        (["werner", "--points", "50"], "werner_50.csv"),
        (["certify", "--s12", "2.5"], "certify_s12_2.5.json"),
        (["werner", "--format", "json", "--points", "20"], "werner_20.json"),
        (["game-separation"], "game_separation.json"),
    ],
)
def test_closed_form_outputs_are_pinned(capsys, argv, golden):
    # closed forms, fixed 4x4 qubit products, np.linspace and formatting
    # only, so every digit is stable
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["--strategy", "werner:0.9", "--n", "100000", "--seed", "7"],
         "85dfb14874d551f3140ad54e01a68d199dbc72df7fa9946ccc768159b519caf7"),
        (["--strategy", "bell", "--n", "20000", "--seed", "3"],
         "7e8ea2808b55aa090b7aaa69acf8827415c07655165fa0d3da45ee12ee8031e2"),
        # a dyadic model with the cell (1/4, 0, 0, 3/4): tied partial sums
        (["--strategy", "lhv:{model}", "--n", "20000", "--seed", "5"],
         "d01e3ed209ab349d7d7d25550559949f4a2f7d774213dc39ec1422e264a88c99"),
    ],
)
def test_simulate_output_is_pinned(tmp_path, argv, sha256):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "weights": [0.25, 0.75],
        "responses": [[[[1, 0], [0.5, 0.5]], [[0, 1], [0.25, 0.75]]],
                      [[[0.5, 0.5], [1, 0]], [[0.75, 0.25], [0, 1]]]],
    }))
    argv = [arg.format(model=model) for arg in argv]
    code, out = run_to_file(tmp_path, "trials.csv", ["simulate", *argv])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("estimator", ["correlator_wise", "single_trial"])
def test_trial_certificates_are_pinned(capsys, tmp_path, estimator):
    _, trials = run_to_file(
        tmp_path, "trials.csv",
        ["simulate", "--strategy", "werner:0.9", "--n", "100000", "--seed", "7"],
    )
    assert main(["certify", "--trials", str(trials), "--estimator", estimator]) == EXIT_OK
    suffix = "" if estimator == "correlator_wise" else "_single_trial"
    golden = GOLDEN / f"certify_trials_werner_0.9_n100000_seed7{suffix}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_werner_scan_csv_and_threshold(tmp_path):
    code, out = run_to_file(tmp_path, "werner.csv", ["werner", "--points", "11"])
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "eta,s12,a12,c13_max_bound,gap"
    assert len(lines) == 12
    table = {round(float(r.split(",")[0]), 3): [float(v) for v in r.split(",")]
             for r in lines[1:]}
    assert table[0.7][4] == 0.0  # below 1/sqrt(2)
    assert table[0.8][4] > 0.0
    assert main(["werner", "--points", "1"]) == EXIT_INPUT


def test_werner_json(tmp_path):
    code, out = run_to_file(
        tmp_path, "werner.json", ["werner", "--points", "3", "--format", "json"]
    )
    assert code == EXIT_OK
    rows = json.loads(out.read_text())
    assert [r["eta"] for r in rows] == [0.0, 0.5, 1.0]
    assert rows[2]["gap"] == pytest.approx(1.0 / (2.0 * sqrt(2.0)), abs=1e-12)


def test_npa_scan_csv(tmp_path):
    code, out = run_to_file(
        tmp_path, "scan.csv",
        ["npa-scan", "--alphas", "1.5", "--grid", "3", "--max-iters", "3000"],
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,s,primal,dual,gap,max_residual,min_eig,status,certified"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1.5"
    assert float(first[2]) == pytest.approx(3.5, abs=1e-4)
    assert first[8] in ("yes", "no")


def test_npa_scan_alpha0_sanity_note(tmp_path, capsys):
    code, out = run_to_file(
        tmp_path, "scan0.csv",
        ["npa-scan", "--alphas", "0", "--grid", "3", "--max-iters", "4000"],
    )
    err = capsys.readouterr().err
    assert code == EXIT_OK
    assert "alpha=0 sanity" in err
    assert out.exists()


def test_npa_scan_alpha0_sanity_failure_exits_3(monkeypatch, tmp_path, capsys):
    # a closed form shifted by 0.01 puts every certified untilted row 1e-2 off
    monkeypatch.setattr(npa, "s13_max", lambda s: s13_max(s) + 0.01)
    code, out = run_to_file(
        tmp_path, "scan0.csv",
        ["npa-scan", "--alphas", "0", "--grid", "2", "--max-iters", "400"],
    )
    err = capsys.readouterr().err
    assert code == EXIT_VERIFY
    assert "certified 1/2, max deviation from sqrt(8-s^2) = 1.000e-02" in err
    assert "alpha=0 sanity FAILED (deviation above 1e-3)" in err
    # the CSV is written before the sanity check runs
    lines = out.read_text().strip().split("\n")
    assert lines[0] == npa.CSV_HEADER
    assert len(lines) == 3


def test_npa_scan_argument_errors(capsys):
    assert main(["npa-scan", "--alphas", "abc"]) == EXIT_INPUT
    assert main(["npa-scan", "--alphas", "2.5"]) == EXIT_INPUT
    assert main(["npa-scan", "--alphas", ""]) == EXIT_INPUT
    assert main(["npa-scan", "--alphas", "1.0", "--grid", "1"]) == EXIT_INPUT
    capsys.readouterr()
    for max_iters in ("0", "-5"):
        argv = ["npa-scan", "--alphas", "0", "--grid", "2", "--max-iters", max_iters]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: max_iters")
    for flag in ("--eps-abs", "--eps-rel"):
        for value in ("-1", "nan", "inf"):
            argv = ["npa-scan", "--alphas", "0.5", "--grid", "2", "--max-iters", "400",
                    flag, value]
            assert main(argv) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"input error: {flag[2:].replace('-', '_')}")


def test_npa_scan_output_does_not_depend_on_blas_threads():
    # the solver assembles its Schur complement by gathers and bincount, and
    # its other BLAS and LAPACK calls are too small (22x22, 74x74) to be
    # split across threads, so the bytes may not depend on the thread count
    # either. The golden bytes come from two LAPACK builds on x86-64: numpy
    # 2.4.6's bundled OpenBLAS 0.3.31 (Cholesky, SVD, eigenvalues) and scipy
    # 1.17.1's bundled OpenBLAS 0.3.30 (the Schur complement's LU, getrf and
    # getrs); another LAPACK build may round differently.
    argv = [sys.executable, "-m", "nonshare.cli", "npa-scan", "--alphas", "0,0.5",
            "--grid", "4", "--max-iters", "3200"]
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        procs.append(subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE))
    (out1, err1), (out2, err2) = (proc.communicate(timeout=300) for proc in procs)
    assert [proc.returncode for proc in procs] == [EXIT_OK, EXIT_OK]
    assert out1 == out2 == (GOLDEN / "npa_scan_a0_0.5_g4_i3200.csv").read_bytes()
    assert err1 == err2 == (GOLDEN / "npa_scan_a0_0.5_g4_i3200.err").read_bytes()


def test_verify_distance_jsonl(tmp_path, capsys):
    code, out = run_to_file(
        tmp_path, "corpus.jsonl",
        ["verify-distance", "--instances", "5", "--seed", "1"],
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6
    for ln in lines[:5]:
        rec = json.loads(ln)
        assert rec["class"] == "no-signalling"
        assert rec["discrepancy"] < 1e-6
    summary = json.loads(lines[5])
    assert summary["summary"] is True
    assert summary["instances"] == 5
    assert summary["max_discrepancy"] < 1e-6
    assert summary["copied_seed_exact"] is True
    assert main(["verify-distance", "--instances", "0"]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize("status", [3, 4])
def test_verify_distance_solver_failure_exits_4(monkeypatch, capsys, status):
    # an unbounded status (3) is as much a numerical failure as any other
    def failing_linprog(*args, **kwargs):
        return SimpleNamespace(status=status, message="stub", fun=0.0)

    monkeypatch.setattr(extlp, "linprog", failing_linprog)
    assert main(["verify-distance", "--instances", "2"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"solver error: LP solver failure (status {status}): stub\n"


def shifted_highs(name: str, shift: float) -> type:
    """HiGHS whose solution has the field ``name`` (``col_value`` or
    ``row_value``) moved by ``shift``."""
    real = extlp.highs._Highs

    class Shifted:
        def __init__(self):
            self._highs = real()

        def __getattr__(self, attr):
            return getattr(self._highs, attr)

        def getSolution(self):
            solution = self._highs.getSolution()
            setattr(solution, name, [v + shift for v in getattr(solution, name)])
            return solution

    return Shifted


@pytest.mark.parametrize("name, shift", [("col_value", -1e-3), ("row_value", 1e-3)])
def test_verify_distance_solution_off_its_constraints_exits_4(monkeypatch, capsys, name, shift):
    # extlp.linprog checks HiGHS's optimum as scipy's linprog does: x below
    # its bounds, or rows off their right-hand sides, by more than 10
    # sqrt(1e-9) is status 4, a solver error
    monkeypatch.setattr(extlp.highs, "_Highs", shifted_highs(name, shift))
    p12 = extlp.random_ns_behavior(np.random.default_rng(0))
    lp = extlp._distance_lp(extlp.ExtensionProblem(authorized=p12,
                                                   extension_class=extlp.NO_SIGNALLING))
    res = extlp.linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                        bounds=lp.bounds)
    assert res.status == 4 and "required tolerance of 3.16E-04" in res.message
    with pytest.raises(extlp.LpNumericalError, match="status 4"):
        extlp.verification_record(p12, extlp.NO_SIGNALLING)
    assert main(["verify-distance", "--instances", "2"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: LP solver failure (status 4): The solution")


def test_verify_distance_matches_single_records(tmp_path):
    # the CLI solves its records in chunks; its bytes are those of the
    # one-record path on the same draws, then the summary
    code, out = run_to_file(
        tmp_path, "corpus.jsonl", ["verify-distance", "--instances", "11", "--seed", "3"]
    )
    assert code == EXIT_OK
    rng = np.random.default_rng(3)
    records = [extlp.verification_record(extlp.random_ns_behavior(rng), extlp.NO_SIGNALLING)
               for _ in range(11)]
    summary = {
        "summary": True,
        "instances": 11,
        "max_discrepancy": max(rec["discrepancy"] for rec in records),
        "copied_seed_models": 10,
        "copied_seed_exact": True,
    }
    assert out.read_text() == extlp.corpus_to_jsonl(records) + json.dumps(summary) + "\n"


def test_verify_distance_fails_on_a_later_chunk_exits_4(monkeypatch, tmp_path, capsys):
    # a failure in the second HiGHS call still exits 4 and writes nothing
    real_linprog = extlp.linprog
    calls = []

    def second_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            return SimpleNamespace(status=4, message="stub", fun=0.0)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(extlp, "linprog", second_call_fails)
    code, out = run_to_file(tmp_path, "corpus.jsonl", ["verify-distance", "--instances", "6"])
    assert code == EXIT_SOLVER
    assert len(calls) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solver error: LP solver failure (status 4): stub\n"
    assert not out.exists()


def test_verify_distance_corrupted_duals_exit_3_or_4(monkeypatch, tmp_path, capsys):
    # the capacity is proven from the distance LP's equality duals, so wrong
    # ones give a weaker capacity and a discrepancy on nonlocal behaviors,
    # and non-finite ones a solver error
    def noisy_box(rng):
        v = rng.uniform(0.75, 1.0)
        return behaviors.Behavior(2, (2, 2), (2, 2),
                                  v * behaviors.pr_box().table + (1.0 - v) / 4.0)

    real_linprog = extlp.linprog
    corruption = [None]

    def corrupted(*args, **kwargs):
        res = real_linprog(*args, **kwargs)
        if corruption[0] is not None:
            res.eqlin.marginals = corruption[0](res.eqlin.marginals)
        return res

    monkeypatch.setattr(extlp, "random_ns_behavior", noisy_box)
    monkeypatch.setattr(extlp, "linprog", corrupted)
    argv = ["verify-distance", "--instances", "6", "--seed", "4"]
    code, out = run_to_file(tmp_path, "sound.jsonl", argv)
    assert code == EXIT_OK
    for line in out.read_text().strip().split("\n")[:-1]:
        rec = json.loads(line)
        assert rec["capacity"] > 0.25 and rec["discrepancy"] < 1e-12
    corruption[0] = lambda duals: 1.1 * duals
    code, out = run_to_file(tmp_path, "scaled.jsonl", argv)
    assert code == EXIT_VERIFY
    assert "verification FAILED" in capsys.readouterr().err
    assert json.loads(out.read_text().strip().split("\n")[-1])["max_discrepancy"] > 1e-3
    corruption[0] = lambda duals: np.full_like(duals, np.nan)
    assert main(argv) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solver error: LP solver returned non-finite duals\n"


def test_verify_distance_inexact_witness_exits_3(monkeypatch, tmp_path, capsys):
    # random_lhv_model keeps every probability dyadic so that C13 = A12 holds
    # bit for bit; generic floats make the two scores round apart
    def generic_model(rng):
        k = rng.random((2, 4, 2))
        return behaviors.LhvModel(
            weights=rng.dirichlet(np.ones(4)),
            responses=tuple(np.stack([r, 1.0 - r], axis=2) for r in k),
        )

    monkeypatch.setattr(extlp, "random_lhv_model", generic_model)
    code, out = run_to_file(
        tmp_path, "corpus.jsonl", ["verify-distance", "--instances", "2", "--seed", "0"]
    )
    assert code == EXIT_VERIFY
    assert "copied-seed exact: False" in capsys.readouterr().err
    # the corpus is written before the verdict
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    summary = json.loads(lines[-1])
    assert summary["copied_seed_exact"] is False
    assert summary["max_discrepancy"] < 1e-6


def test_game_separation_report(tmp_path):
    code, out = run_to_file(tmp_path, "sep.json", ["game-separation"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    q = payload["quantum"]
    assert q["a12"] == pytest.approx(0.5 + sqrt(2.0) / 4.0, abs=1e-12)
    assert q["v13"] == 0.5
    assert q["u1"] == pytest.approx(q["a12"] - 0.5, abs=1e-15)
    assert payload["separation"] == q["u1"]
    best = payload["classical_best_chsh"]
    assert best["a12"] == pytest.approx(0.75)
    assert best["u1"] == 0.0
    uniform = payload["classical_uniform"]
    assert uniform["a12"] == pytest.approx(0.5)
    assert uniform["u1"] == 0.0
    assert q["witness"] == "pair-score monogamy bound"
    assert best["witness"] == "copied-seed colluder"


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "nonshare.cli", "frontier", "--points", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("s,s13_max,")
