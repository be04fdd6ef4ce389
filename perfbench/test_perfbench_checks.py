"""Each correctness check of the benchmark passes a right output and fails a
perturbed one. Run with `python3 -m pytest perfbench`; needs numpy only."""

import json
from math import log, sqrt

import numpy as np
import pytest

import checks

TILTED = [row for row in checks.NPA_ROWS if row[0] > 0.0 and row[1] != 2.0 + row[0]]


@pytest.mark.parametrize("alpha,s", TILTED)
def test_pinned_strategy_meets_threshold_and_a_row_below_it_fails(alpha, s):
    i12, i13 = checks.pinned_scores(alpha, *checks.PINNED_STRATEGIES[(alpha, s)])
    assert i12 >= s
    assert checks.check_npa_row(alpha, s, i13 + 1e-7, True) == []
    assert checks.check_npa_row(alpha, s, i13 - 2e-6, True)
    assert checks.check_npa_row(alpha, s, i13 + 2e-3, True)
    assert checks.check_npa_row(alpha, s, i13, False)


def test_untilted_and_classical_rows_use_closed_forms():
    assert checks.npa_reference(0.0, 2.407216) == pytest.approx(1.4850290, abs=5e-8)
    assert checks.npa_reference(1.0, 3.0) == 3.0
    assert checks.check_npa_row(0.0, 2.814427, sqrt(8.0 - 2.814427**2) - 2e-6, True)


def scan_csv(tilts, grid, bump=None):
    """A scan CSV whose values have the shape the checks expect: the closed
    form at alpha = 0, a concave decreasing curve from 2 + alpha otherwise;
    endpoints uncertified. `bump` = (row index, delta) perturbs one value."""
    lines = [checks.SCAN_HEADER]
    for alpha in tilts:
        grid_s = np.linspace(2.0 + alpha, checks.quantum_maximum(alpha), grid)
        for k, s in enumerate(grid_s):
            value = sqrt(max(0.0, 8.0 - s * s)) if alpha == 0.0 else 2.0 + alpha - 3.0 * (s - 2.0 - alpha) ** 2
            certified = "yes" if k < grid - 1 else "no"
            lines.append(f"{alpha:.9g},{s:.9g},{value:.9g},0,0,0,0,optimal,{certified}")
    if bump is not None:
        row, delta = bump
        fields = lines[1 + row].split(",")
        fields[2] = f"{float(fields[2]) + delta:.9g}"
        lines[1 + row] = ",".join(fields)
    return "\n".join(lines) + "\n"


SANITY = "alpha=0 sanity: certified 4/5, max deviation from sqrt(8-s^2) = 1.0e-09\n"


def test_scan_check_passes_a_well_formed_scan():
    assert checks.check_scan(scan_csv([0.0, 0.5], 5), SANITY, [0.0, 0.5], 5) == []


@pytest.mark.parametrize("mutate", [
    lambda csv, err: (csv.replace("alpha,s,primal", "alpha,s,value"), err),
    lambda csv, err: (csv.replace(",yes", ",no", 1), err),  # interior point uncertified
    lambda csv, err: (scan_csv([0.0, 0.5], 5, bump=(1, 2e-3)), err),  # off the closed form
    lambda csv, err: (scan_csv([0.0, 0.5], 5, bump=(5, -1e-4)), err),  # s = 2 + alpha off
    lambda csv, err: (scan_csv([0.0, 0.5], 5, bump=(7, -0.05)), err),  # not concave
    lambda csv, err: (scan_csv([0.0, 0.5], 5, bump=(7, 0.5)), err),  # rises with s
    lambda csv, err: (csv, ""),  # sanity line missing
])
def test_scan_check_fails_each_perturbation(mutate):
    csv, err = mutate(scan_csv([0.0, 0.5], 5), SANITY)
    assert checks.check_scan(csv, err, [0.0, 0.5], 5)


def trial_rows(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    x, y = rng.integers(0, 2, size=(2, n))
    a, b = 1 - 2 * rng.integers(0, 2, size=(2, n))
    return np.stack([x, y, a, b], axis=1)


def test_trial_file_round_trip_and_radius():
    rows = trial_rows()
    data = ("x,y,a,b\n" + "".join(f"{x},{y},{a},{b}\n" for x, y, a, b in rows)).encode()
    assert checks.check_trial_file(data, len(rows)) == []
    assert np.array_equal(checks.parse_trials(data), rows)
    assert checks.check_trial_file(data.replace(b"x,y,a,b", b"x,y,a"), len(rows))
    assert checks.check_trial_file(data, len(rows) + 1)
    expected = checks.expected_certificates(rows, 0.01)["correlator_wise"]
    n_min = min(int(((rows[:, 0] == i) & (rows[:, 1] == j)).sum()) for i in (0, 1) for j in (0, 1))
    assert expected["radius"] == pytest.approx(4.0 * sqrt(2.0 * log(800.0) / n_min), rel=1e-15)


def certificate_json(fields, estimator="correlator_wise", confidence=0.99):
    return json.dumps(dict(fields, estimator=estimator, confidence=confidence))


def test_certificate_check_bites_on_a_wrong_radius():
    expected = checks.expected_certificates(trial_rows(), 0.01)["correlator_wise"]
    good = certificate_json(expected)
    assert checks.check_certificate(good, expected, "correlator_wise", 0.01, 2.5) == []
    wrong = certificate_json(dict(expected, radius=expected["radius"] * (1 + 1e-6)))
    assert checks.check_certificate(wrong, expected, "correlator_wise", 0.01, 2.5)
    assert checks.check_certificate(good, expected, "single_trial", 0.01, 2.5)
    assert checks.check_certificate(good, expected, "correlator_wise", 0.05, 2.5)
    assert checks.check_certificate(good, expected, "correlator_wise", 0.01,
                                    expected["s_lcb"] - 1e-3)


def test_coverage_floor_is_criterion_3s():
    assert checks.coverage_floor(0.05, 2000) == pytest.approx(0.95 - 3 * sqrt(0.95 * 0.05 / 2000))
    assert checks.check_coverage([2.0] * 1000, checks.TSIRELSON, 0.05) == []
    assert checks.check_coverage([2.0] * 900 + [3.0] * 100, checks.TSIRELSON, 0.05)


def test_pr_boxes_sit_at_one_half_and_lhv_at_zero():
    for a, b, c in np.ndindex(2, 2, 2):
        table = checks.pr_box_table(a, b, c)
        assert checks.check_no_signalling_table(table) == []
        assert checks.check_capacity_distance(0.5, 0.5, 0.5) == []
        assert checks.check_capacity_distance(0.5, 0.5 + 1e-4, 0.5)
        assert checks.check_capacity_distance(0.5 + 1e-4, 0.5 + 1e-4, 0.5)
    rng = np.random.default_rng(0)
    resp = [np.stack([r, 1 - r], axis=2) for r in rng.random((2, 3, 2))]
    assert checks.check_no_signalling_table(
        checks.lhv_table(rng.dirichlet(np.ones(3)), *resp)) == []
    assert checks.check_capacity_distance(1e-3, 1e-3, 0.0)
    assert checks.check_capacity_distance(0.2, 0.3)
    assert checks.check_capacity_distance(1.5, 1.5)


def test_distance_corpus_check():
    table = (np.ones((2, 2, 2, 2)) / 4).reshape(-1).tolist()
    record = {"behavior": {"table": table}, "capacity": 0.1, "distance": 0.1, "discrepancy": 0.0}
    summary = {"summary": True, "instances": 1, "max_discrepancy": 0.0, "copied_seed_exact": True}

    def corpus(rec=record, summ=summary):
        return json.dumps(rec) + "\n" + json.dumps(summ) + "\n"

    assert checks.check_distance_corpus(corpus(), 1) == []
    assert checks.check_distance_corpus(corpus(), 2)
    assert checks.check_distance_corpus(corpus(dict(record, distance=0.2)), 1)
    signalling = np.zeros((2, 2, 2, 2))
    signalling[:, 0, 0, 0] = signalling[:, 1, 1, 1] = 1.0
    assert checks.check_distance_corpus(
        corpus(dict(record, behavior={"table": signalling.reshape(-1).tolist()})), 1)
    assert checks.check_distance_corpus(corpus(summ=dict(summary, copied_seed_exact=False)), 1)
