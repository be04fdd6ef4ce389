"""Extension-polytope linear programming on binary alphabets.

Desk-scale oracles for the collusion quantities that are polytopic: collusive
vulnerability over classical and no-signalling extension classes, shadow
TV-distance, and the anti-collusion capacity via a merged dual LP. All
problems live on 2-party authorized behaviors with at most 2 inputs and 2
outputs per party; the colluder slot copies party 2's alphabets. Larger
alphabets are rejected so every shipped solve stays exact and fast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Literal

import numpy as np
from scipy.optimize import linprog

from .behaviors import (
    Behavior,
    GameKernel,
    LhvModel,
    behavior_to_json,
    check_no_signalling,
    deterministic_behaviors,
    game_score,
    pr_box,
)

CLASSICAL = "classical"
NO_SIGNALLING = "no-signalling"
ExtensionClass = Literal["classical", "no-signalling"]

DUALITY_GAP_TOL = 1e-8


class LpInfeasibleError(RuntimeError):
    """The LP has no feasible point (meaningful signal for Classical class)."""


class LpUnboundedError(RuntimeError):
    """The LP objective is unbounded over the feasible region."""


class LpNumericalError(RuntimeError):
    """The solver stopped without a trustworthy optimum."""


@dataclass(frozen=True)
class LinearProgram:
    """Dense LP: optimize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, bounds."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: tuple[tuple[float | None, float | None], ...] | None = None
    maximize: bool = False

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        for name in ("a_ub", "a_eq"):
            mat = getattr(self, name)
            if mat is not None:
                mat = np.asarray(mat, dtype=float)
                if mat.ndim != 2 or mat.shape[1] != c.size:
                    raise ValueError(f"{name} must be 2-d with {c.size} columns")
                object.__setattr__(self, name, mat)
        for mat_name, rhs_name in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
            mat, rhs = getattr(self, mat_name), getattr(self, rhs_name)
            if (mat is None) != (rhs is None):
                raise ValueError(f"{mat_name} and {rhs_name} must be given together")
            if rhs is not None:
                rhs = np.asarray(rhs, dtype=float)
                if rhs.shape != (mat.shape[0],):
                    raise ValueError(f"{rhs_name} length must match {mat_name} rows")
                object.__setattr__(self, rhs_name, rhs)
        if self.bounds is not None and len(self.bounds) != c.size:
            raise ValueError("bounds must list one (lo, hi) pair per variable")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    status: str
    optimum: float
    primal: np.ndarray
    dual_optimum: float

    @property
    def gap(self) -> float:
        return abs(self.optimum - self.dual_optimum)


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS; reconstruct the dual objective from the marginals.

    The dual value is b_ub.y_ub + b_eq.y_eq plus the active bound terms, which
    HiGHS returns exactly for basic optimal solutions; gap checks ride on it.
    """
    c = -lp.c if lp.maximize else lp.c
    bounds = lp.bounds if lp.bounds is not None else (0, None)
    res = linprog(
        c,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        raise LpInfeasibleError("LP infeasible: " + res.message)
    if res.status == 3:
        raise LpUnboundedError("LP unbounded: " + res.message)
    if res.status != 0:
        raise LpNumericalError(f"LP solver failure (status {res.status}): " + res.message)
    dual = 0.0
    if lp.b_ub is not None:
        dual += float(lp.b_ub @ res.ineqlin.marginals)
    if lp.b_eq is not None:
        dual += float(lp.b_eq @ res.eqlin.marginals)
    if lp.bounds is not None:
        lo = np.array([b[0] if b[0] is not None else -np.inf for b in lp.bounds])
        hi = np.array([b[1] if b[1] is not None else np.inf for b in lp.bounds])
    else:
        lo = np.zeros(lp.n_vars)
        hi = np.full(lp.n_vars, np.inf)
    lo_fin = np.isfinite(lo)
    hi_fin = np.isfinite(hi)
    dual += float(lo[lo_fin] @ res.lower.marginals[lo_fin])
    dual += float(hi[hi_fin] @ res.upper.marginals[hi_fin])
    sign = -1.0 if lp.maximize else 1.0
    return LpSolution(
        status="optimal",
        optimum=sign * float(res.fun),
        primal=res.x,
        dual_optimum=sign * dual,
    )


def _require_desk_scale(p: Behavior) -> None:
    if p.n_parties != 2:
        raise ValueError("extension problems take a 2-party authorized behavior")
    if max(p.inputs_per_party) > 2 or max(p.outputs_per_party) > 2:
        raise ValueError("alphabets capped at 2 inputs and 2 outputs per party")


@dataclass(frozen=True)
class ExtensionProblem:
    """Collusive-extension instance: authorized pair behavior plus class.

    The colluder's alphabets equal party 2's. The authorized behavior must be
    no-signalling; under the classical class it must additionally admit an
    LHV-mixture decomposition, checked by a feasibility LP at construction.
    """

    authorized: Behavior
    extension_class: ExtensionClass

    def __post_init__(self) -> None:
        _require_desk_scale(self.authorized)
        if self.extension_class not in (CLASSICAL, NO_SIGNALLING):
            raise ValueError(f"unknown extension class {self.extension_class!r}")
        report = check_no_signalling(self.authorized)
        if not report.passed:
            raise ValueError(
                f"authorized behavior signals (residual {report.max_residual:.3e})"
            )
        if self.extension_class == CLASSICAL:
            verts = deterministic_behaviors(
                self.authorized.inputs_per_party, self.authorized.outputs_per_party
            )
            a_eq, b_eq = _mixture_rows(verts, self.authorized)
            lp = LinearProgram(c=np.zeros(len(verts)), a_eq=a_eq, b_eq=b_eq)
            lp_solve(lp)  # raises LpInfeasibleError for nonclassical input

    @property
    def colluder_inputs(self) -> int:
        return self.authorized.inputs_per_party[1]

    @property
    def colluder_outputs(self) -> int:
        return self.authorized.outputs_per_party[1]


def _extension_shape(prob: ExtensionProblem) -> tuple[int, ...]:
    i1, i2 = prob.authorized.inputs_per_party
    o1, o2 = prob.authorized.outputs_per_party
    return (i1, i2, i2, o1, o2, o2)


def _cell_basis(prob: ExtensionProblem) -> np.ndarray:
    """Unit vector of every extension cell, indexed (t1, t2, t3, x1, x2, x3, var)."""
    shape = _extension_shape(prob)
    n_vars = int(np.prod(shape))
    return np.eye(n_vars).reshape(shape + (n_vars,))


def _extension_vertices(prob: ExtensionProblem) -> np.ndarray:
    """Deterministic tripartite tables, the colluder on party 2's alphabets."""
    shape = _extension_shape(prob)
    return deterministic_behaviors(shape[:3], shape[3:])


def _ns_extension_rows(prob: ExtensionProblem) -> tuple[np.ndarray, np.ndarray]:
    """Equality block for the no-signalling extension polytope.

    Rows: per-input-triple normalization; the (1,2)-marginal pin
    Sum_x3 P123 = P12 for every colluder input, by t3 then (t1, t2, x1, x2);
    and party-wise no-signalling (marginal over one party independent of that
    party's input), by party k, t_k >= 1, the other inputs, the other outputs.
    """
    basis = _cell_basis(prob)
    i1, i2, i3 = basis.shape[:3]
    n_vars = basis.shape[-1]
    p12 = prob.authorized.table.reshape(-1)
    blocks = [basis.sum(axis=(3, 4, 5)), np.moveaxis(basis.sum(axis=5), 2, 0)]
    for k in range(3):
        summed = np.moveaxis(basis.sum(axis=3 + k), k, 0)  # t_k first, x_k summed out
        blocks.append(summed[1:] - summed[0])
    rows = np.concatenate([block.reshape(-1, n_vars) for block in blocks])
    rhs = np.zeros(len(rows))
    n_norm = i1 * i2 * i3
    rhs[:n_norm] = 1.0
    rhs[n_norm : n_norm + i3 * p12.size] = np.tile(p12, i3)
    return rows, rhs


def _mixture_rows(pair_tables: np.ndarray, authorized: Behavior) -> tuple[np.ndarray, np.ndarray]:
    """Equality block for weights over vertices whose pair tables mix to P12."""
    n_verts = len(pair_tables)
    a_eq = np.vstack([pair_tables.reshape(n_verts, -1).T, np.ones((1, n_verts))])
    b_eq = np.concatenate([authorized.table.reshape(-1), [1.0]])
    return a_eq, b_eq


def _classical_rows(prob: ExtensionProblem) -> tuple[np.ndarray, np.ndarray]:
    """Equality block for the classical class: mixture weights hit P12."""
    return _mixture_rows(_extension_vertices(prob)[:, :, :, 0].sum(-1), prob.authorized)


def _pair13_coefficients(prob: ExtensionProblem) -> np.ndarray:
    """Map from extension variables to the relabelled (1,3) pair table.

    Returns an array with leading axes the (1,3) pair cell (t1, t3, x1, x3)
    and trailing axes the extension variables; the marginal averages over the
    dropped party-2 input, matching the behavior-marginal convention.
    """
    if prob.extension_class == NO_SIGNALLING:
        i2 = prob.authorized.inputs_per_party[1]
        return _cell_basis(prob).sum(axis=(1, 4)) * (1.0 / i2)
    return np.moveaxis(_extension_vertices(prob)[:, :, 0].sum(-2), 0, -1)


def _extension_equalities(prob: ExtensionProblem) -> tuple[np.ndarray, np.ndarray]:
    if prob.extension_class == NO_SIGNALLING:
        return _ns_extension_rows(prob)
    return _classical_rows(prob)


def collusive_vulnerability(prob: ExtensionProblem, kernel: GameKernel) -> float:
    """Best relabelled-test score any admissible extension grants the colluder.

    No-signalling class: variables are the full tripartite table under
    normalization, no-signalling, and marginal-pin equalities. Classical
    class: variables are weights over deterministic tripartite strategies.
    """
    i1, i2 = prob.authorized.inputs_per_party
    o1, o2 = prob.authorized.outputs_per_party
    if kernel.values.shape != (i1, i2, o1, o2):
        raise ValueError("kernel must live on the relabelled (1,3) pair alphabets")
    pi = kernel.input_distribution(2)
    cell_weight = pi[:, :, None, None] * kernel.values
    coeff = _pair13_coefficients(prob)
    c = np.tensordot(cell_weight, coeff, axes=4)
    a_eq, b_eq = _extension_equalities(prob)
    sol = lp_solve(LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, maximize=True))
    return float(sol.optimum)


def shadow_tv_distance(prob: ExtensionProblem) -> float:
    """Distance from the authorized behavior to its collusive shadow.

    Minimizes sum_t pi(t) (1/2) sum_x u(x,t) over extensions and cellwise
    slacks u >= +-(P12 - Q), with Q the relabelled (1,3) marginal and pi
    uniform over input pairs.
    """
    i1, i2 = prob.authorized.inputs_per_party
    o1, o2 = prob.authorized.outputs_per_party
    p12 = prob.authorized.table.reshape(-1)
    n_cells = p12.size
    coeff = _pair13_coefficients(prob).reshape((n_cells, -1))
    n_ext = coeff.shape[1]
    a_eq, b_eq = _extension_equalities(prob)
    a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], n_cells))])
    # u_cell >= +-(P12 - Q): two inequality rows per pair cell
    eye = np.eye(n_cells)
    a_ub = np.vstack([
        np.hstack([-coeff, -eye]),
        np.hstack([+coeff, -eye]),
    ])
    b_ub = np.concatenate([-p12, p12])
    c = np.concatenate([np.zeros(n_ext), np.full(n_cells, 0.5 / (i1 * i2))])
    sol = lp_solve(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq))
    return float(sol.optimum)


def anticollusion_capacity(prob: ExtensionProblem) -> float:
    """Value of the best [0,1]-kernel test, by merging the inner LP's dual.

    Computes sup over kernels h in [0,1] of <h, P12> - max_Q <h, Q> with Q
    ranging over the shadow. The inner max over extension variables x
    (max g.x s.t. A x = b, x >= 0 with g = G h) is replaced by its dual
    (min b.nu s.t. A' nu >= G h), giving one LP over (h, nu):

        maximize  <pi h, P12> - b.nu   s.t.  G h - A' nu <= 0, 0 <= h <= 1.
    """
    i1, i2 = prob.authorized.inputs_per_party
    p12 = prob.authorized.table.reshape(-1)
    n_cells = p12.size
    pi_cell = 1.0 / (i1 * i2)
    g_mat = pi_cell * _pair13_coefficients(prob).reshape((n_cells, -1)).T
    a_eq, b_eq = _extension_equalities(prob)
    n_ext, n_eq = g_mat.shape[0], a_eq.shape[0]
    c = np.concatenate([pi_cell * p12, -b_eq])
    a_ub = np.hstack([g_mat, -a_eq.T])
    b_ub = np.zeros(n_ext)
    bounds = tuple([(0.0, 1.0)] * n_cells + [(None, None)] * n_eq)
    sol = lp_solve(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, bounds=bounds, maximize=True))
    return max(0.0, float(sol.optimum))


def anti_collusion_power(
    p12: Behavior,
    kernel_a: GameKernel,
    kernel_c: GameKernel,
    extension_class: ExtensionClass,
) -> float:
    """Positive part of authorized score minus collusive vulnerability."""
    prob = ExtensionProblem(authorized=p12, extension_class=extension_class)
    a12 = game_score(p12, kernel_a)
    v13 = collusive_vulnerability(prob, kernel_c)
    return max(0.0, a12 - v13)


def random_ns_behavior(rng: np.random.Generator) -> Behavior:
    """Dirichlet mixture of the 24 binary no-signalling extreme points."""
    tables = list(deterministic_behaviors((2, 2), (2, 2)))
    tables += [pr_box(a, b, c).table for a, b, c in product(range(2), repeat=3)]
    w = rng.dirichlet(np.ones(len(tables)))
    mix = sum(wi * t for wi, t in zip(w, tables))
    return Behavior(2, (2, 2), (2, 2), mix)


def random_lhv_model(
    rng: np.random.Generator, n_lambda: int = 4, resolution_bits: int = 8
) -> LhvModel:
    """Random 2-party model with dyadic weights and response rows.

    Every probability is a multiple of 2**-resolution_bits, so downstream
    products of up to three factors stay exact in double precision; the
    copied-seed equality C13 = A12 then holds bit for bit.
    """
    denom = 2**resolution_bits
    counts = rng.multinomial(denom, rng.dirichlet(np.ones(n_lambda)))
    weights = counts / float(denom)
    responses = []
    for _ in range(2):
        k = rng.integers(0, denom + 1, size=(n_lambda, 2))
        resp = np.stack([k / float(denom), 1.0 - k / float(denom)], axis=2)
        responses.append(resp)
    return LhvModel(weights=weights, responses=tuple(responses))


def verification_record(p12: Behavior, extension_class: ExtensionClass) -> dict:
    """Capacity-equals-distance check for one instance, as a JSON record."""
    prob = ExtensionProblem(authorized=p12, extension_class=extension_class)
    capacity = anticollusion_capacity(prob)
    distance = shadow_tv_distance(prob)
    return {
        "behavior": behavior_to_json(p12),
        "class": extension_class,
        "capacity": capacity,
        "distance": distance,
        "discrepancy": abs(capacity - distance),
    }


def corpus_to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in records)
