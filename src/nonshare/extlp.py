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
from dataclasses import dataclass, field
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
    pr_box,
)

CLASSICAL = "classical"
NO_SIGNALLING = "no-signalling"
ExtensionClass = Literal["classical", "no-signalling"]


class LpInfeasibleError(RuntimeError):
    """The LP has no feasible point (meaningful signal for Classical class)."""


class LpNumericalError(RuntimeError):
    """The solver stopped without a trustworthy optimum."""


def _lp_minimum(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(0, None)) -> float:
    """Minimum of c.x under a_ub x <= b_ub, a_eq x = b_eq and bounds, by HiGHS."""
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if res.status == 2:
        raise LpInfeasibleError("LP infeasible: " + res.message)
    if res.status != 0:  # unbounded (3) too: every LP here has a finite optimum
        raise LpNumericalError(f"LP solver failure (status {res.status}): " + res.message)
    return float(res.fun)


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
    Construction also builds the class's LP data once: the equality block
    ``a_eq x = b_eq`` on the extension variables x (tripartite table cells,
    or weights over deterministic tripartite tables) and ``pair13``, the map
    from x to the relabelled (1,3) pair table, one row per pair cell
    (t1, t3, x1, x3); the marginal averages over the dropped party-2 input.
    """

    authorized: Behavior
    extension_class: ExtensionClass
    a_eq: np.ndarray = field(init=False, repr=False, compare=False)
    b_eq: np.ndarray = field(init=False, repr=False, compare=False)
    pair13: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p12 = self.authorized
        _require_desk_scale(p12)
        if self.extension_class not in (CLASSICAL, NO_SIGNALLING):
            raise ValueError(f"unknown extension class {self.extension_class!r}")
        report = check_no_signalling(p12)
        if not report.passed:
            raise ValueError(
                f"authorized behavior signals (residual {report.max_residual:.3e})"
            )
        i1, i2 = p12.inputs_per_party
        o1, o2 = p12.outputs_per_party
        shape = (i1, i2, i2, o1, o2, o2)
        if self.extension_class == NO_SIGNALLING:
            n_vars = int(np.prod(shape))
            basis = np.eye(n_vars).reshape(shape + (n_vars,))
            a_eq, b_eq = _ns_extension_rows(basis, p12)
            pair13 = basis.sum(axis=(1, 4)) * (1.0 / i2)
        else:
            pair_verts = deterministic_behaviors((i1, i2), (o1, o2))
            mix_eq, mix_rhs = _mixture_rows(pair_verts, p12)
            # raises LpInfeasibleError for nonclassical input
            _lp_minimum(np.zeros(len(pair_verts)), a_eq=mix_eq, b_eq=mix_rhs)
            tri = deterministic_behaviors(shape[:3], shape[3:])
            a_eq, b_eq = _mixture_rows(tri[:, :, :, 0].sum(-1), p12)
            pair13 = np.moveaxis(tri[:, :, 0].sum(-2), 0, -1)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "pair13", pair13.reshape((p12.table.size, -1)))


def _ns_extension_rows(basis: np.ndarray, p12: Behavior) -> tuple[np.ndarray, np.ndarray]:
    """Equality block for the no-signalling extension polytope.

    ``basis`` holds the unit vector of every extension cell, indexed
    (t1, t2, t3, x1, x2, x3, var). Rows: per-input-triple normalization; the
    (1,2)-marginal pin Sum_x3 P123 = P12 for every colluder input, by t3 then
    (t1, t2, x1, x2); and party-wise no-signalling (marginal over one party
    independent of that party's input), by party k, t_k >= 1, the other
    inputs, the other outputs.
    """
    i1, i2, i3 = basis.shape[:3]
    n_vars = basis.shape[-1]
    table = p12.table.reshape(-1)
    blocks = [basis.sum(axis=(3, 4, 5)), np.moveaxis(basis.sum(axis=5), 2, 0)]
    for k in range(3):
        summed = np.moveaxis(basis.sum(axis=3 + k), k, 0)  # t_k first, x_k summed out
        blocks.append(summed[1:] - summed[0])
    rows = np.concatenate([block.reshape(-1, n_vars) for block in blocks])
    rhs = np.zeros(len(rows))
    n_norm = i1 * i2 * i3
    rhs[:n_norm] = 1.0
    rhs[n_norm : n_norm + i3 * table.size] = np.tile(table, i3)
    return rows, rhs


def _mixture_rows(pair_tables: np.ndarray, authorized: Behavior) -> tuple[np.ndarray, np.ndarray]:
    """Equality block for weights over vertices whose pair tables mix to P12."""
    n_verts = len(pair_tables)
    a_eq = np.vstack([pair_tables.reshape(n_verts, -1).T, np.ones((1, n_verts))])
    b_eq = np.concatenate([authorized.table.reshape(-1), [1.0]])
    return a_eq, b_eq


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
    # uniform inputs; i1 * i2 is a power of 2, so the division is exact
    c = (kernel.values / (i1 * i2)).reshape(-1) @ prob.pair13
    return -_lp_minimum(-c, a_eq=prob.a_eq, b_eq=prob.b_eq)


def shadow_tv_distance(prob: ExtensionProblem) -> float:
    """Distance from the authorized behavior to its collusive shadow.

    Minimizes sum_t pi(t) (1/2) sum_x u(x,t) over extensions and cellwise
    slacks u >= +-(P12 - Q), with Q the relabelled (1,3) marginal and pi
    uniform over input pairs.
    """
    i1, i2 = prob.authorized.inputs_per_party
    p12 = prob.authorized.table.reshape(-1)
    coeff = prob.pair13
    n_cells, n_ext = coeff.shape
    a_eq = np.hstack([prob.a_eq, np.zeros((prob.a_eq.shape[0], n_cells))])
    # u_cell >= +-(P12 - Q): two inequality rows per pair cell
    eye = np.eye(n_cells)
    a_ub = np.vstack([
        np.hstack([-coeff, -eye]),
        np.hstack([+coeff, -eye]),
    ])
    b_ub = np.concatenate([-p12, p12])
    c = np.concatenate([np.zeros(n_ext), np.full(n_cells, 0.5 / (i1 * i2))])
    return _lp_minimum(c, a_ub, b_ub, a_eq, prob.b_eq)


def anticollusion_capacity(prob: ExtensionProblem) -> float:
    """Value of the best [0,1]-kernel test, by merging the inner LP's dual.

    Computes sup over kernels h in [0,1] of <h, P12> - max_Q <h, Q> with Q
    ranging over the shadow. The inner max over extension variables x
    (max g.x s.t. A x = b, x >= 0 with g = G h) is replaced by its dual
    (min b.nu s.t. A' nu >= G h), giving one LP over (h, nu):

        maximize  <pi h, P12> - b.nu   s.t.  G h - A' nu <= 0, 0 <= h <= 1.

    The optimum is finite: h is boxed and A x = b, x >= 0 is feasible (the
    product extension, or the mixture found at construction).
    """
    i1, i2 = prob.authorized.inputs_per_party
    p12 = prob.authorized.table.reshape(-1)
    n_cells = p12.size
    pi_cell = 1.0 / (i1 * i2)
    g_mat = pi_cell * prob.pair13.T
    n_ext, n_eq = g_mat.shape[0], prob.a_eq.shape[0]
    c = np.concatenate([pi_cell * p12, -prob.b_eq])
    a_ub = np.hstack([g_mat, -prob.a_eq.T])
    bounds = tuple([(0.0, 1.0)] * n_cells + [(None, None)] * n_eq)
    return max(0.0, -_lp_minimum(-c, a_ub, np.zeros(n_ext), bounds=bounds))


def random_ns_behavior(rng: np.random.Generator) -> Behavior:
    """Dirichlet mixture of the 24 binary no-signalling extreme points."""
    tables = list(deterministic_behaviors((2, 2), (2, 2)))
    tables += [pr_box(a, b, c).table for a, b, c in product(range(2), repeat=3)]
    w = rng.dirichlet(np.ones(len(tables)))
    mix = sum(wi * t for wi, t in zip(w, tables))
    return Behavior(2, (2, 2), (2, 2), mix)


def random_lhv_model(rng: np.random.Generator) -> LhvModel:
    """Random 2-party model on 4 hidden states with dyadic weights and responses.

    Every probability is a multiple of 1/256, so downstream products of up
    to three factors stay exact in double precision; the copied-seed
    equality C13 = A12 then holds bit for bit.
    """
    denom = 256
    counts = rng.multinomial(denom, rng.dirichlet(np.ones(4)))
    weights = counts / float(denom)
    responses = []
    for _ in range(2):
        k = rng.integers(0, denom + 1, size=(4, 2))
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
