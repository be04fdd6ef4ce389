"""Closed-form frontier, certification protocol, and Werner-noise scan."""

from math import sqrt

import numpy as np
import pytest

from nonshare import frontier
from nonshare.frontier import (
    GAMMA_MAX,
    TSIRELSON,
    certify,
    gamma_plus,
    omega_from_s,
    s13_max,
    werner_gap,
    werner_scan,
)


def test_s13_max_anchor_values():
    assert s13_max(0.0) == pytest.approx(TSIRELSON, abs=1e-15)
    assert s13_max(2.0) == pytest.approx(2.0, abs=1e-12)
    assert abs(s13_max(2.5) - sqrt(1.75)) < 5e-15
    # product form is exact at the boundary, no square-root dust
    assert s13_max(TSIRELSON) == 0.0


def test_s13_max_is_the_circle():
    for s in np.linspace(0.0, TSIRELSON, 101):
        c = s13_max(float(s))
        assert abs(s * s + c * c - 8.0) < 1e-12


def test_gamma_plus_zero_through_local_bound():
    for s in (0.0, 0.5, 1.0, 1.9, 2.0):
        assert gamma_plus(s) == 0.0


def test_gamma_plus_strictly_increasing_above_two():
    grid = np.linspace(2.0, TSIRELSON, 200)
    values = [gamma_plus(float(s)) for s in grid]
    diffs = np.diff(values)
    assert np.all(diffs > 0.0)


def test_gamma_plus_boundary_is_exact():
    assert abs(gamma_plus(TSIRELSON) - GAMMA_MAX) < 1e-15
    assert abs(GAMMA_MAX - 1.0 / (2.0 * sqrt(2.0))) == 0.0


def test_range_rejection():
    with pytest.raises(ValueError, match="must lie in"):
        s13_max(-0.1)
    with pytest.raises(ValueError):
        s13_max(TSIRELSON + 1e-9)
    with pytest.raises(ValueError):
        certify(3.0)
    with pytest.raises(ValueError):
        gamma_plus(2.9)


def test_omega_from_s():
    assert omega_from_s(0.0) == 0.5
    assert omega_from_s(2.0) == 0.75
    assert abs(omega_from_s(TSIRELSON) - (0.5 + sqrt(2.0) / 4.0)) < 1e-15
    assert omega_from_s(-2.0) == 0.25
    with pytest.raises(ValueError):
        omega_from_s(3.0)


def test_certify_record_fields():
    rec = certify(2.5)
    assert rec.regime == "certified"
    assert rec.provenance == "analytic"
    assert abs(rec.s13_max - sqrt(1.75)) < 5e-15
    assert rec.omega13_max == pytest.approx(0.5 + rec.s13_max / 8.0, abs=1e-15)
    assert rec.gamma_plus == pytest.approx((2.5 - rec.s13_max) / 8.0, abs=1e-15)
    assert certify(1.7).regime == "below_local"
    assert certify(2.0).regime == "below_local"
    assert certify(2.0).gamma_plus == 0.0


def test_werner_gap_threshold():
    threshold = 1.0 / sqrt(2.0)
    assert werner_gap(threshold) == 0.0
    assert werner_gap(threshold + 1e-9) > 0.0
    assert werner_gap(0.5) == 0.0
    assert abs(werner_gap(1.0) - GAMMA_MAX) < 1e-15
    expected = (0.9 - sqrt(1.0 - 0.81)) / (2.0 * sqrt(2.0))
    assert werner_gap(0.9) == pytest.approx(expected, abs=1e-15)
    assert werner_gap(0.9) == pytest.approx(0.164087701459722, abs=1e-14)


def test_werner_gap_matches_gamma_plus_of_scaled_score():
    # above threshold the gap is exactly gamma_plus at s = 2 sqrt(2) eta
    for eta in (0.75, 0.9, 0.99, 1.0):
        assert werner_gap(eta) == pytest.approx(gamma_plus(TSIRELSON * eta), abs=1e-12)


def test_werner_scan_rows():
    grid = [0.0, 0.5, 1.0 / sqrt(2.0), 0.9, 1.0]
    records = werner_scan(grid)
    assert [r.eta for r in records] == grid
    for r in records:
        assert r.s12 == pytest.approx(TSIRELSON * r.eta, abs=1e-15)
        assert r.a12 == pytest.approx(0.5 + r.s12 / 8.0, abs=1e-15)
        assert r.c13_max_bound == pytest.approx(0.5 + s13_max(r.s12) / 8.0, abs=1e-15)
        assert r.gap == pytest.approx(werner_gap(r.eta), abs=1e-15)


def test_frontier_matches_quantum_tightness_family():
    # the analytic curve touches the achievable pair scores of the
    # three-qubit family, checked through the dense kernel
    from nonshare.qkernel import chsh_score, pair_settings, tightness_state

    a0, a1, o0, o1 = pair_settings()
    for theta in (0.2, 0.7, 1.2):
        psi = tightness_state(theta)
        s12 = chsh_score(psi, a0, a1, o0, o1, party_a=1, party_b=2)
        s13 = chsh_score(psi, a0, a1, o0, o1, party_a=1, party_b=3)
        assert abs(s13 - s13_max(min(max(s12, 0.0), TSIRELSON))) < 1e-7


def test_module_constant_export():
    assert frontier.TSIRELSON == pytest.approx(2.8284271247461903, abs=0.0)
