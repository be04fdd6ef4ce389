"""State, observable, and score checks for the dense quantum kernel."""

from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from nonshare import qkernel
from nonshare.behaviors import check_no_signalling
from nonshare.qkernel import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TSIRELSON,
    DensityOp,
    Ket,
    QuantumStrategy,
    bell_settings,
    bell_state,
    bell_strategy,
    born_behavior,
    chsh_score,
    expectation,
    pair_settings,
    tightness_state,
    werner_state,
    werner_strategy,
)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_X, np.eye(2))
    assert np.allclose(SIGMA_Y @ SIGMA_Y, np.eye(2))
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)


def test_ket_normalization_enforced():
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        Ket(np.array([np.nan, 0.0]))  # NaN passes the norm comparison
    k = Ket(np.array([1.0, 1.0]) / sqrt(2))
    rho = k.density()
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))


def test_density_validation():
    with pytest.raises(ValueError):
        DensityOp(np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOp(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOp(np.eye(2))  # trace 2
    with pytest.raises(ValueError, match="non-finite"):
        DensityOp(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_expectation_real_guard():
    k = Ket(np.array([1.0, 1.0]) / sqrt(2))
    assert expectation(k, SIGMA_X) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        # non-Hermitian operator leaks an imaginary part
        expectation(k, np.array([[0.0, 1.0j], [0.0, 0.0]]))


def test_bell_score_saturates_tsirelson():
    a0, a1, b0, b1 = bell_settings()
    s = chsh_score(bell_state(), a0, a1, b0, b1)
    assert abs(s - TSIRELSON) < 1e-12


def test_swapped_partner_settings_score_zero():
    # with the partner pair in the opposite order the four terms cancel
    a0, a1, b0, b1 = bell_settings()
    s = chsh_score(bell_state(), a0, a1, b1, b0)
    assert abs(s) < 1e-12


def test_werner_score_scales_linearly():
    a0, a1, b0, b1 = bell_settings()
    for eta in (0.0, 0.3, 0.7071, 1.0):
        s = chsh_score(werner_state(eta), a0, a1, b0, b1)
        assert abs(s - TSIRELSON * eta) < 1e-12


def test_quarter_circle_of_tightness_state():
    a0, a1, o0, o1 = pair_settings()
    for theta in (0.0, 0.3, 1.0, pi / 2):
        psi = tightness_state(theta)
        s12 = chsh_score(psi, a0, a1, o0, o1, party_a=1, party_b=2)
        s13 = chsh_score(psi, a0, a1, o0, o1, party_a=1, party_b=3)
        assert abs(s12 - TSIRELSON * sin(theta)) < 1e-9
        assert abs(s13 - TSIRELSON * cos(theta)) < 1e-9
        assert abs(s12 * s12 + s13 * s13 - 8.0) < 1e-8


def test_born_behavior_is_no_signalling_and_normalized():
    rng = np.random.default_rng(11)
    for _ in range(5):
        # random projective pair strategy from random Bloch axes
        def rand_obs():
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z

        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        strat = QuantumStrategy(
            state=Ket(amps),
            observables=((rand_obs(), rand_obs()), (rand_obs(), rand_obs())),
        )
        p = born_behavior(strat)
        report = check_no_signalling(p)
        assert report.max_residual < 1e-12


def test_born_behavior_matches_bell_correlators():
    p = born_behavior(bell_strategy())
    # E_xy from the table, label 0 <-> +1
    e = np.zeros((2, 2))
    for x, y in np.ndindex(2, 2):
        cell = p.table[x, y]
        e[x, y] = cell[0, 0] - cell[0, 1] - cell[1, 0] + cell[1, 1]
    s = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
    assert abs(s - TSIRELSON) < 1e-12


def test_tensor_and_strategy_validation():
    with pytest.raises(ValueError):
        # 2-party state with 3 observable pairs
        QuantumStrategy(
            state=bell_state(),
            observables=((SIGMA_X, SIGMA_Y),) * 3,
        )
    # squares to the identity but is not Hermitian, so it is no observable
    with pytest.raises(ValueError, match="not Hermitian"):
        QuantumStrategy(
            state=bell_state(),
            observables=((np.array([[1.0, 0.5], [0.0, -1.0]]), SIGMA_X), (SIGMA_Z, SIGMA_X)),
        )
    with pytest.raises(ValueError, match="non-finite"):
        QuantumStrategy(
            state=bell_state(),
            observables=((np.array([[np.nan, 0.0], [0.0, -1.0]]), SIGMA_X), (SIGMA_Z, SIGMA_X)),
        )
    with pytest.raises(ValueError, match="square to the identity"):
        QuantumStrategy(
            state=bell_state(), observables=((2 * SIGMA_Z, SIGMA_X), (SIGMA_Z, SIGMA_X))
        )


def test_strategy_builders():
    assert born_behavior(werner_strategy(0.5)).n_parties == 2
    a0, a1, o0, o1 = pair_settings()
    strat3 = QuantumStrategy(
        state=tightness_state(0.3), observables=((a0, a1), (o0, o1), (o0, o1))
    )
    assert strat3.n_parties == 3
    p3 = born_behavior(strat3)
    assert p3.n_parties == 3
    assert check_no_signalling(p3).max_residual < 1e-12


def test_chsh_score_party_validation():
    a0, a1, b0, b1 = bell_settings()
    with pytest.raises(ValueError):
        chsh_score(bell_state(), a0, a1, b0, b1, party_a=1, party_b=1)
    with pytest.raises(ValueError):
        chsh_score(bell_state(), a0, a1, b0, b1, party_a=1, party_b=3)
