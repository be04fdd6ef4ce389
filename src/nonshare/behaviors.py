"""Finite-alphabet conditional behaviors and classical hidden-variable models.

A behavior stores P(outputs | inputs) as a dense table indexed by
(joint input, joint output) with parties numbered from 1. Outcome labels use
the 0 <-> +1, 1 <-> -1 convention of :mod:`nonshare.qkernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

NORMALIZATION_TOL = 1e-12
NO_SIGNALLING_TOL = 1e-9


@dataclass(frozen=True)
class Behavior:
    """Conditional distribution P(x_1..x_n | t_1..t_n) on finite alphabets."""

    n_parties: int
    inputs_per_party: tuple[int, ...]
    outputs_per_party: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        # alphabets are stored as tuples of int, which hash and compare alike
        # whether they came as lists, tuples or numpy integers
        for name in ("inputs_per_party", "outputs_per_party"):
            sizes = tuple(getattr(self, name))
            if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in sizes):
                raise ValueError(f"{name} must hold positive integers, got {sizes}")
            object.__setattr__(self, name, tuple(int(v) for v in sizes))
        shape = self.inputs_per_party + self.outputs_per_party
        if len(self.inputs_per_party) != self.n_parties or len(self.outputs_per_party) != self.n_parties:
            raise ValueError("alphabet lists must have one entry per party")
        if table.shape != shape:
            raise ValueError(f"table shape {table.shape} does not match alphabets {shape}")
        # NaN fails every comparison, so it is checked for first
        if not np.isfinite(table).all():
            raise ValueError("table has a non-finite probability")
        if table.min() < -NORMALIZATION_TOL:
            raise ValueError("table has a negative probability")
        table = np.where(table < 0.0, 0.0, table)  # clear float dust only
        sums = table.reshape(int(np.prod(self.inputs_per_party)), -1).sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > NORMALIZATION_TOL:
            raise ValueError("a joint-input row does not sum to 1")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def n_inputs(self) -> int:
        return int(np.prod(self.inputs_per_party))


@dataclass(frozen=True)
class LhvModel:
    """Mixture of product response rules: P = sum_l w(l) prod_i p_i(x|t,l)."""

    weights: np.ndarray
    responses: tuple[np.ndarray, ...]  # per party, shape (n_lambda, inputs, outputs)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        responses = tuple(np.asarray(r, dtype=float) for r in self.responses)
        # NaN fails every comparison, so each table is checked for it first
        if (
            weights.ndim != 1
            or not np.isfinite(weights).all()
            or weights.min() < 0
            or abs(weights.sum() - 1.0) > NORMALIZATION_TOL
        ):
            raise ValueError("weights must be a probability vector")
        for resp in responses:
            if resp.ndim != 3 or resp.shape[0] != weights.size:
                raise ValueError("response table shape must be (n_lambda, inputs, outputs)")
            if (
                not np.isfinite(resp).all()
                or resp.min() < 0
                or np.max(np.abs(resp.sum(axis=2) - 1.0)) > NORMALIZATION_TOL
            ):
                raise ValueError("each response row must be a probability vector")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "responses", responses)

    @property
    def n_parties(self) -> int:
        return len(self.responses)


@dataclass(frozen=True)
class GameKernel:
    """Scoring kernel h(x-tuple, t-tuple) in [0, 1] under uniform inputs.

    ``values`` is indexed like a behavior table, (joint input, joint output).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if not np.isfinite(values).all() or values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("kernel values must lie in [0, 1]")
        object.__setattr__(self, "values", values)


def _collapse(p: Behavior, kept: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """Kept-party tables with the other parties' outputs summed out.

    Returns the tables stacked along a leading axis over every choice of the
    other parties' inputs, and their largest deviation from the first choice.
    """
    dropped = [q for q in range(1, p.n_parties + 1) if q not in kept]
    drop_out_axes = tuple(p.n_parties + q - 1 for q in dropped)
    collapsed = p.table.sum(axis=drop_out_axes)
    drop_in_axes = tuple(q - 1 for q in dropped)
    moved = np.moveaxis(collapsed, drop_in_axes, range(len(dropped)))
    choices = moved.reshape(-1, *moved.shape[len(dropped):])
    spread = float(np.max(np.abs(choices - choices[0]))) if choices.shape[0] > 1 else 0.0
    return choices, spread


def marginal(p: Behavior, parties: tuple[int, ...]) -> Behavior:
    """Marginal behavior on a subset of parties (1-based, ascending).

    Requires the marginal to be independent of the dropped parties' inputs
    within 1e-9; the returned table averages over the dropped-input choices.
    """
    kept = tuple(sorted(parties))
    if not kept or any(q < 1 or q > p.n_parties for q in kept) or len(set(kept)) != len(kept):
        raise ValueError("parties must be a nonempty subset of 1..n without repeats")
    choices, spread = _collapse(p, kept)
    if spread > NO_SIGNALLING_TOL:
        raise ValueError(
            f"signalling input detected: marginal varies by {spread:.3e} over dropped inputs"
        )
    return Behavior(
        n_parties=len(kept),
        inputs_per_party=tuple(p.inputs_per_party[q - 1] for q in kept),
        outputs_per_party=tuple(p.outputs_per_party[q - 1] for q in kept),
        table=choices.mean(axis=0),
    )


@dataclass(frozen=True)
class NoSignallingReport:
    max_residual: float
    passed: bool


def check_no_signalling(p: Behavior) -> NoSignallingReport:
    """Largest marginal discrepancy over retained subsets and dropped inputs."""
    worst = 0.0
    for size in range(1, p.n_parties):
        for kept in combinations(range(1, p.n_parties + 1), size):
            worst = max(worst, _collapse(p, kept)[1])
    return NoSignallingReport(max_residual=worst, passed=worst <= NO_SIGNALLING_TOL)


def relabel_13_to_12(p13: Behavior, reference: Behavior) -> Behavior:
    """Reinterpret a (1,3) pair behavior on the (1,2) index pair.

    The table is unchanged; the second slot's alphabets must match the
    reference pair behavior's.
    """
    if p13.n_parties != 2:
        raise ValueError("relabelling expects a 2-party behavior")
    if (
        p13.inputs_per_party[1] != reference.inputs_per_party[1]
        or p13.outputs_per_party[1] != reference.outputs_per_party[1]
    ):
        raise ValueError("colluder alphabets do not match the authorized pair")
    return Behavior(
        n_parties=2,
        inputs_per_party=p13.inputs_per_party,
        outputs_per_party=p13.outputs_per_party,
        table=p13.table.copy(),
    )


def game_score(p: Behavior, g: GameKernel) -> float:
    """Expected score sum_t pi(t) sum_x h(x, t) P(x | t), pi uniform."""
    if g.values.shape != p.table.shape:
        raise ValueError("kernel alphabets do not match the behavior")
    cell = (g.values * p.table).reshape(p.n_inputs, -1).sum(axis=1)
    return float(np.full(p.n_inputs, 1.0 / p.n_inputs) @ cell)


def chsh_kernel() -> GameKernel:
    """Predicate kernel for the game x1 xor x2 = t1 t2 on binary alphabets."""
    values = np.zeros((2, 2, 2, 2))
    for t1, t2, x1, x2 in np.ndindex(2, 2, 2, 2):
        values[t1, t2, x1, x2] = 1.0 if (x1 ^ x2) == (t1 & t2) else 0.0
    return GameKernel(values=values)


def lhv_behavior(model: LhvModel) -> Behavior:
    """Behavior generated by a hidden-variable model; always no-signalling."""
    n = model.n_parties
    # sum over the hidden variable (axis 0) of w(l) prod_i p_i(x_i | t_i, l)
    operands = [model.weights, [0]]
    for party, resp in enumerate(model.responses):
        operands += [resp, [0, 1 + party, 1 + n + party]]
    table = np.einsum(*operands, list(range(1, 2 * n + 1)))
    return Behavior(
        n_parties=n,
        inputs_per_party=tuple(r.shape[1] for r in model.responses),
        outputs_per_party=tuple(r.shape[2] for r in model.responses),
        table=table,
    )


def copied_seed_extension(model: LhvModel, p3: np.ndarray) -> Behavior:
    """Extend a 2-party model with a third player reading the same seed.

    ``p3`` has shape (n_lambda, inputs, outputs) like a response table. The
    (1,2) marginal of the result equals ``lhv_behavior(model)`` exactly; with
    ``p3`` a copy of player 2's rule the relabelled (1,3) pair reproduces the
    authorized pair's score on relabelled kernels.
    """
    if model.n_parties != 2:
        raise ValueError("copied-seed extension starts from a 2-party model")
    extended = LhvModel(weights=model.weights, responses=model.responses + (p3,))
    return lhv_behavior(extended)


def deterministic_behaviors(
    inputs_per_party: tuple[int, ...], outputs_per_party: tuple[int, ...]
) -> np.ndarray:
    """Tables of all deterministic behaviors on the given alphabets.

    Each player picks a response function t -> x, listed lexicographically in
    (x(0), x(1), ...); vertices run player-major along the leading axis. On
    binary alphabets f = 2 x(0) + x(1), so for 3 parties v = 16 f1 + 4 f2 + f3.
    """
    n = len(inputs_per_party)
    table = np.ones(())
    for n_in, n_out in zip(inputs_per_party, outputs_per_party):
        functions = np.array(list(product(range(n_out), repeat=n_in)))  # (f, t) -> x
        table = np.multiply.outer(table, np.eye(n_out)[functions])
    # axes come as (f1, t1, x1, f2, t2, x2, ...)
    order = [3 * p + k for k in range(3) for p in range(n)]
    shape = (-1,) + tuple(inputs_per_party) + tuple(outputs_per_party)
    return table.transpose(order).reshape(shape)


def pr_box(a: int = 0, b: int = 0, c: int = 0) -> Behavior:
    """Extremal no-signalling box x1 xor x2 = t1 t2 xor a t1 xor b t2 xor c."""
    table = np.zeros((2, 2, 2, 2))
    for t1, t2, x1, x2 in np.ndindex(2, 2, 2, 2):
        if (x1 ^ x2) == ((t1 & t2) ^ (a & t1) ^ (b & t2) ^ c):
            table[t1, t2, x1, x2] = 0.5
    return Behavior(2, (2, 2), (2, 2), table)


def behavior_to_json(p: Behavior) -> dict:
    """JSON form: alphabets plus the row-major table."""
    return {
        "parties": p.n_parties,
        "inputs": list(p.inputs_per_party),
        "outputs": list(p.outputs_per_party),
        "table": [float(v) for v in p.table.reshape(-1)],
    }


def lhv_model_to_json(model: LhvModel) -> dict:
    return {
        "weights": [float(w) for w in model.weights],
        "responses": [[[list(map(float, row)) for row in lam] for lam in resp] for resp in model.responses],
    }


def lhv_model_from_json(data: dict) -> LhvModel:
    if not isinstance(data, dict):
        raise ValueError("hidden-variable model must be a JSON object")
    for key in ("weights", "responses"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"hidden-variable model needs a {key!r} array")
    weights = np.asarray(data["weights"], dtype=float)
    responses = tuple(np.asarray(r, dtype=float) for r in data["responses"])
    return LhvModel(weights=weights, responses=responses)
