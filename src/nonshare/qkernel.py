"""Dense complex linear algebra for 2- and 3-qubit states and binary observables.

Conventions used throughout the package:

- Party 1 is the leftmost tensor factor; basis indices are big-endian in
  party order, so ``|110>`` means party 1 and 2 in state 1, party 3 in 0.
- A binary observable O has outcomes +1 and -1 with projectors (I +- O)/2.
  Outcome label 0 corresponds to +1 and label 1 to -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import cos, sin

import numpy as np

from .behaviors import Behavior, chsh_kernel, game_score, marginal
from .frontier import SQRT2, TSIRELSON  # TSIRELSON is re-exported for callers

HERMITICITY_TOL = 1e-10
NORM_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class Ket:
    """Pure state vector with unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        # NaN fails every comparison below, so it is refused first
        if not np.isfinite(amp).all():
            raise ValueError("state vector has a non-finite amplitude")
        if amp.ndim != 1 or amp.size & (amp.size - 1):
            raise ValueError("amplitude vector length must be a power of 2")
        if abs(np.vdot(amp, amp).real - 1.0) > NORM_TOL:
            raise ValueError("state vector is not normalized")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> DensityOp:
        return DensityOp(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOp:
    """Density operator: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if not np.isfinite(mat).all():
            raise ValueError("density operator has a non-finite entry")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density operator must be a square matrix")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("density operator is not Hermitian")
        mat = (mat + mat.conj().T) / 2.0
        object.__setattr__(self, "matrix", mat)
        if abs(np.trace(mat).real - 1.0) > NORM_TOL:
            raise ValueError("density operator trace is not 1")
        if np.linalg.eigvalsh(mat).min() < -1e-10:
            raise ValueError("density operator has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class QuantumStrategy:
    """Qubit state shared by n parties plus one pair of binary observables per party."""

    state: Ket | DensityOp
    observables: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        obs = tuple(
            (np.asarray(o0, dtype=complex), np.asarray(o1, dtype=complex))
            for o0, o1 in self.observables
        )
        object.__setattr__(self, "observables", obs)
        if 2 ** len(obs) != self.state.dim:
            raise ValueError("state dimension is not 2 ** (number of parties)")
        for o in chain.from_iterable(obs):
            if o.shape != (2, 2):
                raise ValueError("observables must be 2x2 qubit operators")
            if not np.isfinite(o).all():
                raise ValueError("observable has a non-finite entry")
            if np.max(np.abs(o - o.conj().T)) > HERMITICITY_TOL:
                raise ValueError("observable is not Hermitian")
            if np.max(np.abs(o @ o - I2)) > HERMITICITY_TOL:
                raise ValueError("observable does not square to the identity")

    @property
    def n_parties(self) -> int:
        return len(self.observables)


def bell_state() -> Ket:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1.0 / SQRT2
    return Ket(amp)


def werner_state(eta: float) -> DensityOp:
    """Bell state mixed with white noise: eta |phi><phi| + (1 - eta) I/4."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("noise parameter must lie in [0, 1]")
    phi = bell_state().density().matrix
    return DensityOp(eta * phi + (1.0 - eta) * np.eye(4) / 4.0)


def tightness_state(theta: float) -> Ket:
    """Three-qubit state (cos t |110> + sin t |101> + |011>)/sqrt(2).

    Its (1,2) and (1,3) pair scores trace the quarter-circle
    s12 = 2 sqrt(2) sin t, s13 = 2 sqrt(2) cos t under the shared settings
    returned by :func:`pair_settings`.
    """
    if not 0.0 <= theta <= np.pi / 2.0:
        raise ValueError("theta must lie in [0, pi/2]")
    amp = np.zeros(8, dtype=complex)
    amp[0b110] = cos(theta) / SQRT2
    amp[0b101] = sin(theta) / SQRT2
    amp[0b011] = 1.0 / SQRT2
    return Ket(amp)


def bell_settings() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Observable pairs (A0, A1, B0, B1) with score +2 sqrt(2) on the Bell state.

    A0 = X, A1 = Y, B0 = (X - Y)/sqrt(2), B1 = (X + Y)/sqrt(2). With B0 and
    B1 swapped the same settings score 0 on the Bell state, because
    <Y(x)Y> = -1 there; the order below is the maximizing one.
    """
    b0 = (SIGMA_X - SIGMA_Y) / SQRT2
    b1 = (SIGMA_X + SIGMA_Y) / SQRT2
    return SIGMA_X, SIGMA_Y, b0, b1


def pair_settings() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared settings for the quarter-circle construction.

    A0 = X, A1 = Y for party 1; both other parties use
    O0 = (X + Y)/sqrt(2), O1 = (X - Y)/sqrt(2). On :func:`tightness_state`
    the pair marginals are triplet-like, which flips the sign of <YY>
    relative to the Bell state and makes this order the maximizing one.
    """
    a0, a1, b0, b1 = bell_settings()
    return a0, a1, b1, b0


def chsh_score(
    state: Ket | DensityOp,
    a0: np.ndarray,
    a1: np.ndarray,
    b0: np.ndarray,
    b1: np.ndarray,
    party_a: int = 1,
    party_b: int = 2,
) -> float:
    """Signed CHSH score <A0B0> + <A0B1> + <A1B0> - <A1B1> on a party pair.

    ``party_a`` and ``party_b`` are 1-based tensor slots; all parties are
    qubits and the others measure the identity. The score is read from the
    pair's Born table as 8 w - 4, w its CHSH game value.
    """
    if party_a == party_b:
        raise ValueError("parties must be distinct")
    n_parties = state.dim.bit_length() - 1  # QuantumStrategy checks dim == 2 ** n_parties
    if not (1 <= party_a <= n_parties and 1 <= party_b <= n_parties):
        raise ValueError("party index out of range")
    observables = [(I2, I2)] * n_parties
    observables[party_a - 1] = (a0, a1)
    observables[party_b - 1] = (b0, b1)
    strategy = QuantumStrategy(state=state, observables=tuple(observables))
    pair = marginal(born_behavior(strategy), (party_a, party_b))
    return 8.0 * game_score(pair, chsh_kernel()) - 4.0


def born_behavior(strategy: QuantumStrategy) -> Behavior:
    """Conditional behavior induced by the strategy under the Born rule.

    The observables are binary and projective (checked by `QuantumStrategy`):
    outcomes +-1 map to projectors (I +- O)/2 and outcome labels follow the
    0 <-> +1 convention. P(x|t) = Tr(rho (x)_k P^k_{t_k x_k}) is one
    contraction of rho, reshaped to (2,) * 2n, with each party's projector
    stack of shape (setting, outcome, 2, 2). The result is fully
    no-signalling up to floating-point error.
    """
    n, state = strategy.n_parties, strategy.state
    # contract rho, not psi* P psi: the ket form rounds the Bell table differently
    if isinstance(state, Ket):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    # axes: rho rows 0..n-1, rho columns n..2n-1, settings 2n.., outcomes 3n..
    operands = [rho.reshape((2,) * 2 * n), list(range(2 * n))]
    for k, pair in enumerate(strategy.observables):
        stack = np.array([[(I2 + o) / 2.0, (I2 - o) / 2.0] for o in pair])
        operands += [stack, [2 * n + k, 3 * n + k, n + k, k]]
    table = np.einsum(*operands, list(range(2 * n, 4 * n))).real
    return Behavior(n_parties=n, inputs_per_party=(2,) * n, outputs_per_party=(2,) * n, table=table)


def bell_strategy() -> QuantumStrategy:
    """Two-party Bell-state strategy at the maximal CHSH score."""
    a0, a1, b0, b1 = bell_settings()
    return QuantumStrategy(state=bell_state(), observables=((a0, a1), (b0, b1)))


def werner_strategy(eta: float) -> QuantumStrategy:
    """Werner-noise strategy with the Bell-optimal settings; score 2 sqrt(2) eta."""
    a0, a1, b0, b1 = bell_settings()
    return QuantumStrategy(state=werner_state(eta), observables=((a0, a1), (b0, b1)))
