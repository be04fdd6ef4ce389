"""Correctness checks for the benchmark's outputs, computed apart from nonshare.

Every reference value here comes from numpy and the paper's formulas, never
from the program under test: the closed form sqrt(8 - s^2), the I13 score of
an explicit three-qubit strategy built from plain Pauli matrices, the
Hoeffding radius, the optimal-value properties of a convex program, and the
extremal-box distance 1/2. Each check returns a list of failure messages; an
empty list means the output passed. This module imports numpy only.
"""

from __future__ import annotations

import io
import json
from math import cos, log, sin, sqrt

import numpy as np

TSIRELSON = 2.0 * sqrt(2.0)

# A certified level-2 value is an upper bound, so it may not lie below a
# value that a quantum strategy attains. The 1e-6 allows for the primal
# iterate not yet being a rigorous bound; 1e-3 is criterion 9's tolerance.
BELOW_TOL = 1e-6
ABOVE_TOL = 1e-3
MONOTONE_TOL = 1e-6
CONCAVE_TOL = 1e-5
RESULT_TOL = 1e-9
DISTANCE_TOL = 1e-6

SCAN_HEADER = "alpha,s,primal,dual,gap,max_residual,min_eig,status,certified"

# The twelve certified rows of acceptance criterion 9, as (alpha, s).
NPA_ROWS = (
    (0.0, 2.0), (0.0, 2.407216), (0.0, 2.814427),
    (0.5, 2.5), (0.5, 2.711267), (0.5, 2.908355),
    (1.0, 3.0), (1.0, 3.082475), (1.0, 3.159492),
    (1.5, 3.5), (1.5, 3.519258), (1.5, 3.534899),
)

# Three-qubit strategies for the tilted interior rows, as pinned in
# tests/test_npa.py: six angles t for the observables cos(t) Z + sin(t) X in
# the order A0, A1, B0, B1, C0, C1, and eight real amplitudes, normalized
# before use. Each reaches I12 >= s.
PINNED_STRATEGIES = {
    (0.5, 2.711267): (
        (-0.186814604635, 1.38398178228, 2.88046294802,
         -2.3704428007, -2.9175931813, -2.91759315838),
        (0.0104385731841, -0.0928116889725, -0.105783691126, 0.940546832889,
         -0.0340631646813, 0.302863219389, 0.00566826511715, -0.0503977612454),
    ),
    (0.5, 2.908355): (
        (0.550580552216, 2.12137686818, -0.890262870381,
         -2.35476403605, -1.8129764911, -1.81297645577),
        (0.28199543522, -0.360133089655, -0.425982476254, 0.54401722672,
         0.325915227899, -0.416222530502, 0.113520726539, -0.14497597449),
    ),
    (1.0, 3.082475): (
        (-2.14155774271, 2.57083144043, 2.56955874934,
         1.74353738385, -0.0920205186337, -0.0920205361634),
        (-0.394361993867, 0.0181575012308, -0.317988966004, 0.0146411034091,
         0.309009908451, -0.0142276688967, 0.803591352097, -0.0369995578908),
    ),
    (1.0, 3.159492): (
        (-0.283459560363, 1.28733677499, 2.80820185682,
         -2.21570546741, -3.09860188475, -3.0986019918),
        (0.00169063760261, -0.0786389323378, -0.0194946105886, 0.906783021816,
         -0.00876357266859, 0.407634241405, 0.00150995066322, -0.0702340134641),
    ),
    (1.5, 3.519258): (
        (-0.436205865913, -2.00700323031, 0.953897444683,
         1.54193549602, 2.11230821052, 2.11230827379),
        (0.375873261546, 0.664710309925, 0.290697762385, 0.514082371295,
         -0.128432701713, -0.22712589032, -0.00173977087983, -0.00307666661178),
    ),
    (1.5, 3.534899): (
        (-1.32989525919, 0.240901046709, 1.41971144754,
         0.503041977763, 1.27197918794, 1.27197922677),
        (-0.484209547797, -0.357505869292, -0.395336751732, -0.291888497291,
         0.50024974333, 0.369348799322, 0.0787091674505, 0.0581132585493),
    ),
}

_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_I = np.eye(2)


def quantum_maximum(alpha: float) -> float:
    return sqrt(8.0 + 2.0 * alpha * alpha)


def pinned_scores(alpha: float, angles, amplitudes) -> tuple[float, float]:
    """(I12, I13) of a real three-qubit strategy, A on qubit 1, B on 2, C on 3."""
    psi = np.asarray(amplitudes, dtype=float)
    psi = psi / np.linalg.norm(psi)
    a0, a1, b0, b1, c0, c1 = (cos(t) * _Z + sin(t) * _X for t in angles)

    def mean(op_a, op_b, op_c) -> float:
        return float(psi @ np.kron(np.kron(op_a, op_b), op_c) @ psi)

    tilt = alpha * mean(a0, _I, _I)
    i12 = tilt + mean(a0, b0, _I) + mean(a0, b1, _I) + mean(a1, b0, _I) - mean(a1, b1, _I)
    i13 = tilt + mean(a0, _I, c0) + mean(a0, _I, c1) + mean(a1, _I, c0) - mean(a1, _I, c1)
    return i12, i13


def npa_reference(alpha: float, s: float) -> float:
    """The value a certified level-2 bound must reproduce at (alpha, s)."""
    if alpha == 0.0:
        return sqrt(max(0.0, 8.0 - s * s))
    if s == 2.0 + alpha:
        return 2.0 + alpha
    i12, i13 = pinned_scores(alpha, *PINNED_STRATEGIES[(alpha, s)])
    if i12 < s:
        raise ValueError(f"pinned strategy at ({alpha}, {s}) misses the threshold: I12 = {i12}")
    return i13


def check_npa_value(alpha: float, s: float, value: float, reference: float) -> list[str]:
    diff = value - reference
    if -BELOW_TOL <= diff <= ABOVE_TOL:
        return []
    return [f"(alpha={alpha}, s={s}): value {value:.10f} is {diff:+.3e} from "
            f"its reference {reference:.10f} (allowed [-{BELOW_TOL:g}, +{ABOVE_TOL:g}])"]


def check_npa_row(alpha: float, s: float, primal: float, certified: bool) -> list[str]:
    if not certified:
        return [f"(alpha={alpha}, s={s}): criterion-9 row did not certify"]
    return check_npa_value(alpha, s, primal, npa_reference(alpha, s))


def parse_scan_csv(text: str) -> list[dict]:
    lines = text.strip().split("\n")
    if not lines or lines[0] != SCAN_HEADER:
        raise ValueError(f"scan CSV header is {lines[0]!r}" if lines else "empty scan CSV")
    rows = []
    for line in lines[1:]:
        alpha, s, primal, *_, certified = line.split(",")
        rows.append({"alpha": float(alpha), "s": float(s), "primal": float(primal),
                     "certified": certified == "yes"})
    return rows


def check_scan(csv_text: str, stderr_text: str, alphas: list[float], grid: int) -> list[str]:
    """The output of an npa-scan that exited 0: layout, certification,
    anchors, and the shape of the optimal value, which is non-increasing and
    concave in s because s tightens the right-hand side of a convex program."""
    try:
        rows = parse_scan_csv(csv_text)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(alphas) * grid:
        return [f"npa-scan printed {len(rows)} rows, expected {len(alphas) * grid}"]
    errors = []
    for k, alpha in enumerate(alphas):
        tilt = rows[k * grid:(k + 1) * grid]
        expected_s = np.linspace(2.0 + alpha, quantum_maximum(alpha), grid)
        for row, s in zip(tilt, expected_s):
            if row["alpha"] != alpha or abs(row["s"] - s) > 1e-8 * s:
                errors.append(f"row (alpha={row['alpha']}, s={row['s']}) is off the grid point "
                              f"(alpha={alpha}, s={s:.9g})")
        for row in tilt[:-1]:
            if not row["certified"]:
                errors.append(f"interior point (alpha={alpha}, s={row['s']}) did not certify")
        errors += check_npa_value(alpha, tilt[0]["s"], tilt[0]["primal"], 2.0 + alpha)
        if alpha == 0.0:
            for row in tilt:
                if row["certified"]:
                    errors += check_npa_value(0.0, row["s"], row["primal"],
                                              sqrt(max(0.0, 8.0 - row["s"] ** 2)))
        values = [row["primal"] if row["certified"] else None for row in tilt]
        for i in range(1, grid):
            if values[i - 1] is not None and values[i] is not None:
                if values[i] > values[i - 1] + MONOTONE_TOL:
                    errors.append(f"alpha={alpha}: value rises from {values[i - 1]:.9g} to "
                                  f"{values[i]:.9g} as s grows")
            if i + 1 < grid and None not in values[i - 1:i + 2]:
                second = values[i - 1] - 2.0 * values[i] + values[i + 1]
                if second > CONCAVE_TOL:
                    errors.append(f"alpha={alpha}: value is convex at s={tilt[i]['s']:.9g} "
                                  f"(second difference {second:.3e})")
    if 0.0 in alphas:
        n_cert = sum(1 for r in rows if r["alpha"] == 0.0 and r["certified"])
        prefix = f"alpha=0 sanity: certified {n_cert}/{grid}, max deviation from sqrt(8-s^2) = "
        lines = [ln for ln in stderr_text.splitlines() if ln.startswith(prefix)]
        if len(lines) != 1:
            errors.append(f"stderr lacks the line {prefix!r}...: {stderr_text!r}")
        elif not float(lines[0][len(prefix):]) <= ABOVE_TOL:
            errors.append(f"alpha=0 sanity line reports {lines[0]!r}")
    return errors


def parse_trials(data: bytes) -> np.ndarray:
    header, _, body = data.partition(b"\n")
    if header != b"x,y,a,b":
        raise ValueError(f"trial file header is {header!r}")
    return np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64, ndmin=2)


def _certificate_fields(s_hat: float, radius: float) -> dict:
    s_lcb = s_hat - radius
    s_cert = min(TSIRELSON, max(0.0, s_lcb))
    return {"s_hat": s_hat, "radius": radius, "s_lcb": s_lcb, "s_cert": s_cert,
            "gamma_lcb": max(0.0, (s_cert - sqrt(max(0.0, 8.0 - s_cert * s_cert))) / 8.0)}


def expected_certificates(trials: np.ndarray, alpha: float) -> dict[str, dict]:
    """Both estimators' certificates recomputed from the trial rows."""
    x, y, a, b = trials.T
    prod = a * b
    counts = np.zeros((2, 2), dtype=np.int64)
    e_hat = np.zeros((2, 2))
    for t1 in (0, 1):
        for t2 in (0, 1):
            cell = (x == t1) & (y == t2)
            counts[t1, t2] = int(cell.sum())
            e_hat[t1, t2] = prod[cell].sum() / counts[t1, t2]
    s_hat = e_hat[0, 0] + e_hat[0, 1] + e_hat[1, 0] - e_hat[1, 1]
    n_min = int(counts.min())
    z = 4.0 * np.where(x * y == 1, -1.0, 1.0) * prod
    return {
        "correlator_wise": _certificate_fields(
            float(s_hat), 4.0 * sqrt(2.0 * log(8.0 / alpha) / n_min)),
        "single_trial": _certificate_fields(
            float(z.sum() / z.size), 4.0 * sqrt(2.0 * log(1.0 / alpha) / z.size)),
    }


def check_trial_file(data: bytes, n_trials: int) -> list[str]:
    try:
        trials = parse_trials(data)
    except ValueError as exc:
        return [str(exc)]
    errors = []
    if trials.shape != (n_trials, 4):
        errors.append(f"trial file holds {trials.shape} values, expected ({n_trials}, 4)")
    elif not (np.isin(trials[:, :2], (0, 1)).all() and np.isin(trials[:, 2:], (-1, 1)).all()):
        errors.append("trial file holds settings other than bits or outcomes other than +-1")
    return errors


def check_certificate(cert_json: str, expected: dict, estimator: str, alpha: float,
                      s_true: float) -> list[str]:
    cert = json.loads(cert_json)
    errors = []
    if cert.get("estimator") != estimator:
        errors.append(f"certificate estimator {cert.get('estimator')!r}, expected {estimator!r}")
    if abs(cert.get("confidence", -1.0) - (1.0 - alpha)) > RESULT_TOL:
        errors.append(f"certificate confidence {cert.get('confidence')}, expected {1.0 - alpha}")
    for key, value in expected.items():
        if key not in cert or abs(cert[key] - value) > RESULT_TOL * max(1.0, abs(value)):
            errors.append(f"{estimator} {key} = {cert.get(key)}, recomputed {value!r}")
    if cert.get("s_lcb", np.inf) > s_true:
        errors.append(f"{estimator} s_lcb {cert.get('s_lcb')} exceeds the true score {s_true}")
    return errors


def coverage_floor(alpha: float, n_batches: int) -> float:
    """Criterion 3's floor: nominal coverage less three binomial deviations."""
    return (1.0 - alpha) - 3.0 * sqrt((1.0 - alpha) * alpha / n_batches)


def check_coverage(s_lcbs: list[float], s_true: float, alpha: float) -> list[str]:
    coverage = sum(1 for v in s_lcbs if v <= s_true) / len(s_lcbs)
    floor = coverage_floor(alpha, len(s_lcbs))
    if coverage >= floor:
        return []
    return [f"coverage {coverage:.4f} over {len(s_lcbs)} batches is below the floor {floor:.4f}"]


def check_no_signalling_table(table: np.ndarray) -> list[str]:
    """A binary 2-party behavior table p[x, y, a, b]: a distribution per input
    pair whose one-party marginals do not depend on the other party's input."""
    table = np.asarray(table, dtype=float).reshape(2, 2, 2, 2)
    errors = []
    if table.min() < -RESULT_TOL or np.abs(table.sum(axis=(2, 3)) - 1.0).max() > RESULT_TOL:
        errors.append("behavior table is not a distribution per input pair")
    alice = table.sum(axis=3)  # [x, y, a]
    bob = table.sum(axis=2)  # [x, y, b]
    if np.abs(alice[:, 0] - alice[:, 1]).max() > RESULT_TOL or \
            np.abs(bob[0] - bob[1]).max() > RESULT_TOL:
        errors.append("behavior table signals")
    return errors


def check_capacity_distance(capacity: float, distance: float,
                            expected: float | None = None) -> list[str]:
    errors = []
    if abs(capacity - distance) > DISTANCE_TOL:
        errors.append(f"capacity {capacity!r} and distance {distance!r} differ")
    for name, value in (("capacity", capacity), ("distance", distance)):
        if not -RESULT_TOL <= value <= 1.0 + RESULT_TOL:
            errors.append(f"{name} {value!r} lies outside [0, 1]")
        if expected is not None and abs(value - expected) > DISTANCE_TOL:
            errors.append(f"{name} {value!r}, expected {expected}")
    return errors


def check_distance_corpus(jsonl_text: str, n_instances: int) -> list[str]:
    """The output of a verify-distance that exited 0."""
    lines = jsonl_text.strip().split("\n")
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])
    errors = []
    if len(records) != n_instances or summary.get("instances") != n_instances:
        errors.append(f"verify-distance reports {len(records)} records for {n_instances} instances")
    for rec in records:
        errors += check_no_signalling_table(rec["behavior"]["table"])
        errors += check_capacity_distance(rec["capacity"], rec["distance"])
        if abs(rec["discrepancy"] - abs(rec["capacity"] - rec["distance"])) > RESULT_TOL:
            errors.append(f"record discrepancy {rec['discrepancy']!r} is not |capacity - distance|")
    discrepancies = [rec["discrepancy"] for rec in records]
    if discrepancies and summary.get("max_discrepancy") != max(discrepancies):
        errors.append(f"summary max_discrepancy {summary.get('max_discrepancy')!r} "
                      f"is not the largest record discrepancy {max(discrepancies)!r}")
    if summary.get("copied_seed_exact") is not True:
        errors.append("summary reports an inexact copied-seed witness")
    return errors


def lhv_table(weights: np.ndarray, resp1: np.ndarray, resp2: np.ndarray) -> np.ndarray:
    """p[x, y, a, b] = sum_l w_l R1[l, x, a] R2[l, y, b]."""
    return np.einsum("l,lxa,lyb->xyab", weights, resp1, resp2)


def pr_box_table(a: int, b: int, c: int) -> np.ndarray:
    """Extremal no-signalling box: outputs satisfy x1 xor x2 = t1 t2 xor a t1 xor b t2 xor c."""
    table = np.zeros((2, 2, 2, 2))
    for t1, t2, x1, x2 in np.ndindex(2, 2, 2, 2):
        if (x1 ^ x2) == ((t1 & t2) ^ (a & t1) ^ (b & t2) ^ c):
            table[t1, t2, x1, x2] = 0.5
    return table
