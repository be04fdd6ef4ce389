"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Every expected number here is either a closed-form anchor, a frozen value
from an independent cross-check, or a row of the reference table. Each
certified row of that table is the six-digit rounding of a value with a
named source: the closed form sqrt(8 - s^2) or the score of a pinned qubit
strategy, both checked in tests/test_npa.py. Tolerances and runtime budgets
are part of the criteria.
"""

import json
import time
from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from nonshare import behaviors, cli, extlp, finitedata, frontier, npa, qkernel

SQRT2 = sqrt(2.0)
TSIRELSON = 2.0 * SQRT2


def report(name: str, elapsed: float, detail: str) -> None:
    print(f"criterion {name}: {detail} (elapsed {elapsed:.2f}s)")


def test_criterion_01_exact_frontier_values():
    t0 = time.perf_counter()
    boundary_err = abs(frontier.gamma_plus(TSIRELSON) - 1.0 / (2.0 * SQRT2))
    assert boundary_err < 1e-12
    below = np.linspace(0.0, 2.0, 1000)
    assert all(frontier.gamma_plus(float(s)) == 0.0 for s in below)
    grid = np.linspace(2.0, TSIRELSON, 1000)
    values = np.array([frontier.gamma_plus(float(s)) for s in grid])
    assert np.all(np.diff(values) > 0.0), "gamma_plus must increase strictly above 2"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("1 (exact frontier)", elapsed,
           f"boundary err {boundary_err:.2e}, zero on [0,2], strictly increasing on [2, 2*sqrt2]")


def test_criterion_02_worked_finite_data_example():
    t0 = time.perf_counter()
    stats = finitedata.CorrelatorStats(
        e_hat=np.array([[0.7, 0.7], [0.7, -0.55]]),
        n=np.full((2, 2), 25000), n_min=25000, s_hat=2.65,
    )
    cert = finitedata.lower_confidence_bound(stats, alpha=0.01)
    assert cert.radius == pytest.approx(0.09250, abs=5e-4)
    assert cert.s_lcb == pytest.approx(2.5575, abs=1e-3)
    assert cert.gamma_lcb == pytest.approx(0.1687, abs=1e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("2 (worked example)", elapsed,
           f"radius {cert.radius:.5f}, s_lcb {cert.s_lcb:.4f}, gamma_lcb {cert.gamma_lcb:.4f}")


def test_criterion_03_hoeffding_coverage():
    t0 = time.perf_counter()
    strategy = qkernel.bell_strategy()
    s_true = TSIRELSON
    alpha = 0.05
    n_batches = 2000
    hits = 0
    for k in range(n_batches):
        batch = finitedata.simulate_trials(strategy, 2000, seed=31_000 + k)
        cert = finitedata.lower_confidence_bound(
            finitedata.estimate_correlators(batch), alpha
        )
        hits += cert.s_lcb <= s_true
    coverage = hits / n_batches
    slack = 3.0 * sqrt((1.0 - alpha) * alpha / n_batches)
    assert coverage >= (1.0 - alpha) - slack
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("3 (coverage)", elapsed,
           f"coverage {coverage:.4f} over {n_batches} batches, floor {(1.0 - alpha) - slack:.4f}")


def test_criterion_04_werner_threshold():
    t0 = time.perf_counter()
    threshold = 1.0 / SQRT2
    grid = np.linspace(0.0, 1.0, 10000)
    for eta in grid:
        gap = frontier.werner_gap(float(eta))
        if eta <= threshold - 1e-9:
            assert gap == 0.0, f"gap must vanish at eta={eta}"
        elif eta >= threshold + 1e-9:
            assert gap > 0.0, f"gap must be positive at eta={eta}"
    top_err = abs(frontier.werner_gap(1.0) - 1.0 / (2.0 * SQRT2))
    assert top_err < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("4 (werner threshold)", elapsed,
           f"sign change at 1/sqrt2 on 10^4 grid, gap(1) err {top_err:.2e}")


def test_criterion_05_tightness_construction():
    t0 = time.perf_counter()
    a0, a1, o0, o1 = qkernel.pair_settings()
    worst_pair, worst_circle = 0.0, 0.0
    for theta in np.linspace(0.0, pi / 2.0, 50):
        psi = qkernel.tightness_state(float(theta))
        s12 = qkernel.chsh_score(psi, a0, a1, o0, o1, party_a=1, party_b=2)
        s13 = qkernel.chsh_score(psi, a0, a1, o0, o1, party_a=1, party_b=3)
        worst_pair = max(worst_pair, abs(s12 - TSIRELSON * sin(theta)),
                         abs(s13 - TSIRELSON * cos(theta)))
        worst_circle = max(worst_circle, abs(s12 * s12 + s13 * s13 - 8.0))
    assert worst_pair < 1e-9
    assert worst_circle < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("5 (tightness)", elapsed,
           f"max pair-score err {worst_pair:.2e}, max circle err {worst_circle:.2e} over 50 angles")


def test_criterion_06_game_separation(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sep.json"
    assert cli.main(["game-separation", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    a12_err = abs(payload["quantum"]["a12"] - cos(pi / 8.0) ** 2)
    u1_err = abs(payload["quantum"]["u1"] - 1.0 / (2.0 * SQRT2))
    assert a12_err < 1e-10
    assert u1_err < 1e-10
    kernel = behaviors.chsh_kernel()
    rng = np.random.default_rng(606)
    exact = 0
    for _ in range(100):
        model = extlp.random_lhv_model(rng)
        p12 = behaviors.lhv_behavior(model)
        a12 = behaviors.game_score(p12, kernel)
        ext = behaviors.copied_seed_extension(model, model.responses[1])
        p13 = behaviors.relabel_13_to_12(behaviors.marginal(ext, (1, 3)), reference=p12)
        c13 = behaviors.game_score(p13, kernel)
        assert c13 == a12, "copied-seed colluder must match the authorized score exactly"
        assert a12 - c13 <= 0.0
        exact += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("6 (game separation)", elapsed,
           f"a12 err {a12_err:.2e}, u1 err {u1_err:.2e}, copied-seed exact {exact}/100")


def test_criterion_07_capacity_equals_distance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_ns = 0.0
    for _ in range(100):
        rec = extlp.verification_record(extlp.random_ns_behavior(rng), extlp.NO_SIGNALLING)
        worst_ns = max(worst_ns, rec["discrepancy"])
    assert worst_ns < 1e-6
    worst_classical = 0.0
    for _ in range(50):
        p12 = behaviors.lhv_behavior(extlp.random_lhv_model(rng))
        prob = extlp.ExtensionProblem(authorized=p12, extension_class=extlp.CLASSICAL)
        cap = extlp.anticollusion_capacity(prob)
        dist = extlp.shadow_tv_distance(prob)
        worst_classical = max(worst_classical, cap, dist)
    assert worst_classical < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report("7 (capacity = distance)", elapsed,
           f"max NS discrepancy {worst_ns:.2e} over 100, max classical value {worst_classical:.2e} over 50")


def test_criterion_08_alpha0_sanity_grid():
    t0 = time.perf_counter()
    rep = npa.alpha0_report(npa.scan([0.0], 60))
    interior = rep.certified_mask[:-1]
    assert all(interior), "only the quantum-boundary endpoint may fail to certify"
    assert rep.max_dev <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    n_cert = sum(rep.certified_mask)
    report("8 (alpha0 sanity)", elapsed,
           f"certified {n_cert}/60, max deviation from sqrt(8-s^2) = {rep.max_dev:.2e}")


# reference diagnostic table (alpha, s, value, certified), six printed digits
# per value. Each certified value names its source:
#   - alpha = 0: the closed form sqrt(8 - s^2), frontier.s13_max;
#   - s = 2 + alpha: the deterministic strategy with every outcome +1, which
#     attains I12 = I13 = 2 + alpha;
#   - the other tilted rows: I13 of the three-qubit strategy pinned for the
#     row in tests/test_npa.py, which also attains I12 >= s.
# A level-2 value is an upper bound, so no certified value may lie below an
# attained one. The last row of each tilt sits within 1e-6 of the quantum
# maximum and may not certify: the solver proves it infeasible or reports a
# boundary row; only its flag is checked, not its value.
REFERENCE_ROWS = [
    (0.0, 2.000000, 2.000000, True),
    (0.0, 2.407216, 1.485029, True),
    (0.0, 2.814427, 0.281071, True),
    (0.0, 2.828427, 0.000547, False),
    (0.5, 2.500000, 2.500000, True),
    (0.5, 2.711267, 2.058524, True),
    (0.5, 2.908355, 1.094981, True),
    (0.5, 2.915476, 0.864823, False),
    (1.0, 3.000000, 3.000000, True),
    (1.0, 3.082475, 2.696610, True),
    (1.0, 3.159492, 2.054940, True),
    (1.0, 3.162278, 1.903434, False),
    (1.5, 3.500000, 3.500000, True),
    (1.5, 3.519258, 3.335695, True),
    (1.5, 3.534899, 3.044356, True),
    (1.5, 3.535534, 2.973043, False),
]


def test_criterion_09_reference_table_reproduction():
    t0 = time.perf_counter()
    structure = npa.build_structure()
    failures = []
    for alpha, s, recorded, expect_certified in REFERENCE_ROWS:
        sol = npa.sdp_solve(npa.assemble(alpha, s, structure))
        if expect_certified:
            diff = abs(sol.primal - recorded)
            line = (f"  alpha={alpha:<4} s={s:<9} computed={sol.primal:.6f} "
                    f"recorded={recorded:.6f} diff={diff:.2e} "
                    f"status={sol.status} certified={sol.certified}")
            if not sol.certified:
                failures.append(f"(alpha={alpha}, s={s}) failed to certify: status {sol.status}")
            elif diff > 1e-3:
                failures.append(
                    f"(alpha={alpha}, s={s}) certified value {sol.primal:.6f} differs "
                    f"from the recorded {recorded:.6f} by {diff:.2e} (tolerance 1e-3)"
                )
        else:
            line = (f"  alpha={alpha:<4} s={s:<9} computed={sol.primal:.6f} "
                    f"status={sol.status} certified={sol.certified} (endpoint)")
            if sol.certified:
                failures.append(f"(alpha={alpha}, s={s}) endpoint unexpectedly certified")
        print(line)
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report("9 (reference table)", elapsed,
           f"{len(REFERENCE_ROWS) - len(failures)}/{len(REFERENCE_ROWS)} rows reproduced")
    assert not failures, (
        "reference-table rows not reproduced; each recorded value is a closed "
        "form or an attained qubit score (checked in tests/test_npa.py), so a "
        "certified level-2 bound more than 1e-3 away from it points at the "
        "relaxation or the solver:\n" + "\n".join(failures)
    )


def test_criterion_10_no_signalling_of_quantum_behaviors():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)

    def random_observable() -> np.ndarray:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        return v[0] * qkernel.SIGMA_X + v[1] * qkernel.SIGMA_Y + v[2] * qkernel.SIGMA_Z

    worst = 0.0
    for k in range(20):
        n_parties = 2 if k < 10 else 3
        amps = rng.normal(size=2 ** n_parties) + 1j * rng.normal(size=2 ** n_parties)
        amps /= np.linalg.norm(amps)
        strategy = qkernel.QuantumStrategy(
            state=qkernel.Ket(amps),
            observables=tuple(
                (random_observable(), random_observable()) for _ in range(n_parties)
            ),
        )
        residual = behaviors.check_no_signalling(qkernel.born_behavior(strategy)).max_residual
        worst = max(worst, residual)
    assert worst < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("10 (born no-signalling)", elapsed,
           f"max marginal residual {worst:.2e} over 20 random projective strategies")
