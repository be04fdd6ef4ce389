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


def reference_born_table(strategy):
    """tr(rho kron(projectors)) cell by cell, with rho as a matrix."""
    n = strategy.n_parties
    state = strategy.state
    rho = state.density().matrix if isinstance(state, Ket) else state.matrix
    table = np.zeros((2,) * 2 * n)
    for settings in np.ndindex(*(2,) * n):
        for outcomes in np.ndindex(*(2,) * n):
            op = np.eye(1)
            for (o0, o1), t, x in zip(strategy.observables, settings, outcomes):
                obs = o1 if t else o0
                op = np.kron(op, (np.eye(2) + (-1) ** x * obs) / 2.0)
            table[settings + outcomes] = np.trace(rho @ op).real
    return table


@pytest.mark.parametrize("n_parties", [2, 3])
@pytest.mark.parametrize("mixed", [False, True])
def test_born_behavior_matches_reference_contraction(n_parties, mixed):
    # complex states and sigma_Y components make rho non-symmetric, so a
    # contraction with rho's indices swapped (tr(rho^T P)) differs here
    rng = np.random.default_rng(29 + n_parties)
    dim = 2**n_parties
    for _ in range(4):
        vectors = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        if mixed:
            rho = vectors @ vectors.conj().T
            state = DensityOp(rho / np.trace(rho).real)
        else:
            state = Ket(vectors[:, 0] / np.linalg.norm(vectors[:, 0]))
        axes = rng.normal(size=(n_parties, 2, 3))
        axes /= np.linalg.norm(axes, axis=2, keepdims=True)
        observables = tuple(
            tuple(v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z for v in pair) for pair in axes
        )
        strategy = QuantumStrategy(state=state, observables=observables)
        reference = reference_born_table(strategy)
        assert np.max(np.abs(born_behavior(strategy).table - reference)) < 1e-14


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
    # the observables get the checks of every strategy
    with pytest.raises(ValueError, match="non-finite"):
        chsh_score(bell_state(), np.array([[np.nan, 0.0], [0.0, 1.0]]), a1, b0, b1)
    with pytest.raises(ValueError, match="not Hermitian"):
        chsh_score(bell_state(), np.array([[1.0, 0.5], [0.0, -1.0]]), a1, b0, b1)
