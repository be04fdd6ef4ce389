"""Extension-polytope linear programming on binary alphabets.

Desk-scale oracles for the collusion quantities that are polytopic, over
classical and no-signalling extension classes: shadow TV-distance and the
anti-collusion capacity via a merged dual LP. All
problems live on 2-party authorized behaviors with at most 2 inputs and 2
outputs per party; the colluder slot copies party 2's alphabets. Larger
alphabets are rejected so every shipped solve stays exact and fast.

A verification record solves the distance LP alone. The capacity LP is its
dual up to a shift along the pin rows, so the record's capacity is a lower
bound proven from the distance LP's duals (`_capacity_dual`), in the style
of Neumaier & Shcherbina (Math. Program. 99 (2004) 283-296);
`anticollusion_capacity` still solves the capacity LP itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from types import SimpleNamespace
from typing import Literal, NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs

from .behaviors import (
    NO_SIGNALLING_TOL,
    Behavior,
    LhvModel,
    behavior_to_json,
    check_no_signalling,
    deterministic_behaviors,
    pr_box,
)

CLASSICAL = "classical"
NO_SIGNALLING = "no-signalling"
ExtensionClass = Literal["classical", "no-signalling"]

# records per HiGHS call in `verification_records`: of chunks of 3, 5 and 8,
# 5 gives the least time per record (0.56 ms, against 0.61 and 0.58 ms on
# verify-distance's 150 records), and the peak memory grows by about 0.2 MB
# per record of a chunk
RECORDS_PER_CALL = 5


class LpInfeasibleError(RuntimeError):
    """The LP has no feasible point (meaningful signal for Classical class)."""


class LpNumericalError(RuntimeError):
    """The solver stopped without a trustworthy optimum."""


class _Lp(NamedTuple):
    """Minimize c.x under a_ub x <= b_ub, a_eq x = b_eq and per-variable
    bounds, an (n, 2) array of (lower, upper) with infinities where free.
    The matrices are None on the records of a chunk (`_distance_lp`)."""

    c: np.ndarray
    a_ub: np.ndarray | None
    b_ub: np.ndarray
    a_eq: np.ndarray | None
    b_eq: np.ndarray
    bounds: np.ndarray


# scipy's status and message per HiGHS model status, as `scipy.optimize.linprog`
# reports them: 0 optimal, 1 limit reached, 2 infeasible, 3 unbounded, 4 other
_MODEL_STATUS = highs.HighsModelStatus
_SCIPY_STATUS = {
    _MODEL_STATUS.kNotset: (4, ""),
    _MODEL_STATUS.kLoadError: (4, ""),
    _MODEL_STATUS.kModelError: (2, ""),
    _MODEL_STATUS.kPresolveError: (4, ""),
    _MODEL_STATUS.kSolveError: (4, ""),
    _MODEL_STATUS.kPostsolveError: (4, ""),
    _MODEL_STATUS.kModelEmpty: (4, ""),
    _MODEL_STATUS.kObjectiveBound: (4, ""),
    _MODEL_STATUS.kObjectiveTarget: (4, ""),
    _MODEL_STATUS.kOptimal: (0, "Optimization terminated successfully. "),
    _MODEL_STATUS.kTimeLimit: (1, "Time limit reached. "),
    _MODEL_STATUS.kIterationLimit: (1, "Iteration limit reached. "),
    _MODEL_STATUS.kInfeasible: (2, "The problem is infeasible. "),
    _MODEL_STATUS.kUnbounded: (3, "The problem is unbounded. "),
    _MODEL_STATUS.kUnboundedOrInfeasible: (4, "The problem is unbounded or infeasible. "),
}
# scipy's post-solve tolerance: 10 sqrt(tol) at its default tol of 1e-9
_FEASIBILITY_TOL = 10.0 * np.sqrt(1e-9)


@cache
def _highs_options() -> highs.HighsOptions:
    """The options scipy's linprog passes HiGHS with presolve off; HiGHS
    copies them in `passOptions`, and this object is never changed. Every LP
    here has at most 400 columns (a chunk of five records), where presolve
    costs more than it saves: a classical record's `run` takes about 0.9 ms
    with it and 0.3 ms without, for about 18 dual simplex iterations either
    way."""
    options = highs.HighsOptions()
    options.presolve = "off"
    options.highs_debug_level = 0
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = 1  # dual simplex
    return options


_ROWWISE, _MINIMIZE = int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize)


def _rows(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR arrays (indptr, indices, data) of ``a``, dense or sparse, with
    sorted indices and no duplicate entries, as HiGHS requires; a sparse
    matrix not in that form is summed on a copy, never in place."""
    if not sparse.issparse(a):
        a = np.asarray(a, dtype=float)
        rows, cols = np.nonzero(a)
        return np.searchsorted(rows, np.arange(len(a) + 1)), cols, a[rows, cols]
    a = a if a.format == "csr" else sparse.csr_array(a)
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    return a.indptr, a.indices, a.data


def linprog(c, A_ub, b_ub, A_eq, b_eq, bounds) -> SimpleNamespace:
    """Minimize c.x under A_ub x <= b_ub, A_eq x = b_eq and ``bounds``, an
    (n, 2) array of (lower, upper), on HiGHS (Huangfu & Hall, Math. Prog.
    Comp. 10 (2018) 119-142).

    A thin driver for the HiGHS binding that scipy ships, giving the bits of
    ``scipy.optimize.linprog(..., method="highs", options={"presolve":
    False})`` by doing what it does wherever the result depends on it: the
    same model, A = vstack(A_ub, A_eq) with rows -inf <= A_ub x <= b_ub and
    b_eq <= A_eq x <= b_eq; the same options (`_highs_options`); the same
    status and message; and the same check after the solve, which turns an
    optimum whose x, slacks or equality residuals miss by more than
    `_FEASIBILITY_TOL` into status 4. Each call solves on a fresh HiGHS
    instance, so no solve depends on an earlier one. Non-finite c, A or b, a
    NaN bound, or shapes that do not match, raise ValueError. A goes to
    HiGHS as numpy arrays in row-wise form, the concatenation of the CSR
    arrays of A_ub and A_eq (`_rows`); HiGHS turns it column-wise before it
    solves, so the bits are those of scipy's CSC.

    Returns scipy's fields that extlp reads: ``status``, ``message``,
    ``nit``, and, at an optimum, ``x``, ``fun`` and the row duals
    ``ineqlin.marginals`` and ``eqlin.marginals`` (None otherwise).
    """
    c, b_ub, b_eq, bounds = (np.asarray(v, dtype=float) for v in (c, b_ub, b_eq, bounds))
    # HiGHS reads each array to the lengths passed with it, unchecked
    if (np.shape(A_ub) != b_ub.shape + c.shape or np.shape(A_eq) != b_eq.shape + c.shape
            or bounds.shape != c.shape + (2,)):
        raise ValueError("LP data must have matching shapes")
    (ub_start, ub_index, ub_value), (eq_start, eq_index, eq_value) = _rows(A_ub), _rows(A_eq)
    value = np.concatenate([ub_value, eq_value], dtype=float)
    if not all(np.isfinite(v).all() for v in (c, b_ub, b_eq, value)) or np.isnan(bounds).any():
        raise ValueError("LP data must be finite and its bounds not NaN")
    start = np.concatenate([ub_start[:-1], eq_start[:-1] + ub_start[-1]], dtype=np.int32)
    index = np.concatenate([ub_index, eq_index], dtype=np.int32)
    n_ub = len(b_ub)
    rhs = np.concatenate([b_ub, b_eq])
    lhs = np.concatenate([np.full(n_ub, -np.inf), b_eq])

    solver = highs._Highs()
    solver.passOptions(_highs_options())  # valid by construction
    failed = highs.HighsStatus.kError
    res = SimpleNamespace(nit=0, x=None, fun=None, ineqlin=SimpleNamespace(marginals=None),
                          eqlin=SimpleNamespace(marginals=None))
    if solver.passModel(len(c), len(rhs), len(value), _ROWWISE, _MINIMIZE, 0.0,
                        c, bounds[:, 0], bounds[:, 1], lhs, rhs, start, index,
                        value, np.zeros(len(c), dtype=np.int32)) == failed:
        model_status = _MODEL_STATUS.kModelError
        text = solver.modelStatusToString(model_status)
    elif solver.run() == failed:
        model_status = solver.getModelStatus()
        text = solver.modelStatusToString(model_status)
    else:
        model_status, info = solver.getModelStatus(), solver.getInfo()
        text = solver.modelStatusToString(model_status)
        res.nit = info.simplex_iteration_count or info.ipm_iteration_count
        if model_status == _MODEL_STATUS.kOptimal:
            solution = solver.getSolution()
            res.x, res.fun = np.array(solution.col_value), info.objective_function_value
            slack = rhs - solution.row_value
            duals = np.array(solution.row_dual)
            res.ineqlin.marginals, res.eqlin.marginals = duals[:n_ub], duals[n_ub:]
        else:
            text = (f"model_status is {text}; primal_status is "
                    f"{solver.solutionStatusToString(info.primal_solution_status)}")
    res.status, prefix = _SCIPY_STATUS.get(
        model_status, (4, "The HiGHS status code was not recognized. "))
    res.message = f"{prefix}(HiGHS Status {int(model_status)}: {text})"
    tol = _FEASIBILITY_TOL
    # every comparison with NaN is false, so a NaN in x or the slacks fails too
    if res.status == 0 and (np.isnan(res.fun) or not (
            (res.x >= bounds[:, 0] - tol).all() and (res.x <= bounds[:, 1] + tol).all()
            and (slack[:n_ub] >= -tol).all() and (np.abs(slack[n_ub:]) <= tol).all())):
        res.status = 4
        res.message = ("The solution does not satisfy the constraints within the required "
                       f"tolerance of {tol:.2E}, yet no errors were raised and "
                       "there is no certificate of infeasibility or unboundedness.")
    return res


def _minimum(lp: _Lp) -> float:
    """Minimum of ``lp``: c . x at `_solve`'s optimum."""
    return float(lp.c @ _solve(lp).x)


def _solve(lp: _Lp):
    """`linprog`'s result for ``lp`` at an optimum, else LpInfeasibleError or
    LpNumericalError. For LPs this small, `linprog`'s fixed cost (input
    checks, the HiGHS set-up and hand-over) is about a third of each call,
    0.28-0.30 of 0.87-0.93 ms on average over the 138 calls of perfbench's
    lp-corpus round (2 cores, one BLAS thread), so `verification_records`
    solves a chunk of records as one LP, their direct sum."""
    res = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=lp.bounds)
    if res.status == 2:
        raise LpInfeasibleError("LP infeasible: " + res.message)
    if res.status != 0:  # unbounded (3) too: every LP here has a finite optimum
        raise LpNumericalError(f"LP solver failure (status {res.status}): " + res.message)
    return res


def _nonnegative(n: int) -> np.ndarray:
    return np.tile([0.0, np.inf], (n, 1))


def _require_desk_scale(p: Behavior) -> None:
    if p.n_parties != 2:
        raise ValueError("extension problems take a 2-party authorized behavior")
    if max(p.inputs_per_party) > 2 or max(p.outputs_per_party) > 2:
        raise ValueError("alphabets capped at 2 inputs and 2 outputs per party")


@dataclass(frozen=True)
class ExtensionProblem:
    """Collusive-extension instance: authorized pair behavior plus class.

    The colluder's alphabets equal party 2's. The authorized behavior must be
    no-signalling; under the classical class it must additionally be local,
    checked at construction by the CHSH facets (`_require_local`).
    The class's LP data: ``a_eq x = b_eq``, the (1,2)-marginal pin on the
    extension variables x (tripartite table cells, or weights over
    deterministic tripartite tables) plus, on cells, parties 1 and 2's
    no-signalling (`_ns_extension_rows`); and ``pair13``, the map from x to
    the relabelled (1,3) pair table, one row per pair cell (t1, t3, x1, x3);
    the marginal averages over the dropped party-2 input. ``a_eq`` and
    ``pair13`` do not depend on P12, so they are shared read-only arrays
    (`_class_rows`); only ``b_eq`` is built per problem.
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
        if self.extension_class == CLASSICAL:
            _require_local(p12)
        a_eq, pair13 = _class_rows(p12.inputs_per_party, p12.outputs_per_party,
                                   self.extension_class)
        # the pin's right-hand side is P12, once per colluder input on cells;
        # the no-signalling rows after it are homogeneous
        copies = p12.inputs_per_party[1] if self.extension_class == NO_SIGNALLING else 1
        pin = np.tile(p12.table.reshape(-1), copies)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", np.pad(pin, (0, len(a_eq) - len(pin))))
        object.__setattr__(self, "pair13", pair13)


@cache
def _class_rows(inputs: tuple[int, ...], outputs: tuple[int, ...],
                extension_class: ExtensionClass) -> tuple[np.ndarray, np.ndarray]:
    """``a_eq`` and ``pair13`` of `ExtensionProblem`, read-only: they depend
    only on the alphabets and the class."""
    (i1, i2), (o1, o2) = inputs, outputs
    shape = (i1, i2, i2, o1, o2, o2)
    if extension_class == NO_SIGNALLING:
        n_vars = int(np.prod(shape))
        basis = np.eye(n_vars).reshape(shape + (n_vars,))
        a_eq = _ns_extension_rows(basis)
        pair13 = basis.sum(axis=(1, 4)) * (1.0 / i2)
    else:
        tri = deterministic_behaviors(shape[:3], shape[3:])
        # weights over the tripartite vertices whose (1,2) tables mix to P12;
        # the rows of one input pair sum to the total weight, which is thus 1
        a_eq = tri[:, :, :, 0].sum(-1).reshape(len(tri), -1).T
        pair13 = np.moveaxis(tri[:, :, 0].sum(-2), 0, -1)
    pair13 = pair13.reshape((i1 * i2 * o1 * o2, -1))
    for m in (a_eq, pair13):
        m.flags.writeable = False
    return a_eq, pair13


def _require_local(p12: Behavior) -> None:
    """Raise LpInfeasibleError unless the no-signalling pair is local.

    Fine's criterion (PRL 48, 291 (1982)): a no-signalling pair with 2 inputs
    and 2 outputs per party is local iff all eight CHSH forms
    |E00 + E01 + E10 + E11 - 2 E_xy| are at most 2, where E_xy is the
    correlator at inputs (x, y). Each form is allowed 2 + NO_SIGNALLING_TOL,
    the slack the no-signalling check already grants the table. With one
    input or one output on a side, every no-signalling pair is local.
    """
    if p12.table.shape != (2, 2, 2, 2):
        return
    t = p12.table
    corr = t[:, :, 0, 0] + t[:, :, 1, 1] - t[:, :, 0, 1] - t[:, :, 1, 0]
    chsh = float(np.abs(corr.sum() - 2.0 * corr).max())
    if chsh > 2.0 + NO_SIGNALLING_TOL:
        raise LpInfeasibleError(
            f"authorized behavior is not local: CHSH value {chsh:.12g} exceeds 2"
        )


def _ns_extension_rows(basis: np.ndarray) -> np.ndarray:
    """Equality rows of the no-signalling extension polytope.

    ``basis`` holds the unit vector of every extension cell, indexed
    (t1, t2, t3, x1, x2, x3, var). Rows: the (1,2)-marginal pin
    Sum_x3 P123 = P12 for every colluder input, by t3 then (t1, t2, x1, x2);
    then no-signalling for party k = 1, 2 (marginal over party k independent
    of t_k), by k, t_k >= 1, the other inputs, the other outputs with
    x3 < o3 - 1. The rest follow: normalization is a sum of pin rows; the pin
    fixes the (1,2) marginal for every t3, so party 3 cannot signal; and
    party k's row at x3 = o3 - 1 is the pin's sum over x_k and x3, differenced
    over t_k, minus the kept rows, which holds as P12 is no-signalling. The
    pin's right-hand side is P12; the other rows are homogeneous.
    """
    n_vars = basis.shape[-1]
    blocks = [np.moveaxis(basis.sum(axis=5), 2, 0)]
    for k in range(2):
        summed = np.moveaxis(basis.sum(axis=3 + k), k, 0)[..., :-1, :]  # no x_k, x3 < o3 - 1
        blocks.append(summed[1:] - summed[0])
    return np.concatenate([block.reshape(-1, n_vars) for block in blocks])


def shadow_tv_distance(prob: ExtensionProblem) -> float:
    """Distance from the authorized behavior to its collusive shadow.

    Minimizes sum_t pi(t) (1/2) sum_x u(x,t) over extensions and cellwise
    slacks u >= +-(P12 - Q), with Q the relabelled (1,3) marginal and pi
    uniform over input pairs.
    """
    lp = _distance_lp(prob)
    return _minimum(lp)


def _distance_lp(prob: ExtensionProblem, matrices: bool = True) -> _Lp:
    """The LP of `shadow_tv_distance` over (x, u). Its matrices depend only
    on the alphabets and the class (`_distance_matrices`); with ``matrices``
    false they are None, for chunks that read theirs from `_record_matrices`."""
    i1, i2 = prob.authorized.inputs_per_party
    p12 = prob.authorized.table.reshape(-1)
    n_cells, n_ext = prob.pair13.shape
    a_ub, a_eq = _distance_matrices(prob.a_eq, prob.pair13) if matrices else (None, None)
    b_ub = np.concatenate([-p12, p12])
    c = np.concatenate([np.zeros(n_ext), np.full(n_cells, 0.5 / (i1 * i2))])
    return _Lp(c, a_ub, b_ub, a_eq, prob.b_eq, _nonnegative(len(c)))


def _distance_matrices(a_eq: np.ndarray, pair13: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inequality and equality matrices of `_distance_lp` from a class's
    `ExtensionProblem.a_eq` and ``pair13``: u_cell >= +-(P12 - Q), two
    inequality rows per pair cell, and the extension's rows, free of u."""
    n_cells = pair13.shape[0]
    eye = np.eye(n_cells)
    a_ub = np.vstack([
        np.hstack([-pair13, -eye]),
        np.hstack([+pair13, -eye]),
    ])
    return a_ub, np.hstack([a_eq, np.zeros((a_eq.shape[0], n_cells))])


def anticollusion_capacity(prob: ExtensionProblem) -> float:
    """Value of the best [0,1]-kernel test, by merging the inner LP's dual.

    Computes sup over kernels h in [0,1] of <h, P12> - max_Q <h, Q> with Q
    ranging over the shadow. The inner max over extension variables x
    (max g.x s.t. A x = b, x >= 0 with g = G h) is replaced by its dual
    (min b.nu s.t. A' nu >= G h), giving one LP over (h, nu):

        maximize  <pi h, P12> - b.nu   s.t.  G h - A' nu <= 0, 0 <= h <= 1.

    The optimum is finite: h is boxed and A x = b, x >= 0 is feasible (the
    product extension, or a mixture of deterministic tables, which exists
    for a local pair).
    """
    lp = _capacity_lp(prob)
    return max(0.0, -_minimum(lp))


def _capacity_lp(prob: ExtensionProblem) -> _Lp:
    """The LP of `anticollusion_capacity` over (h, nu), as a minimum of
    minus the capacity."""
    i1, i2 = prob.authorized.inputs_per_party
    p12 = prob.authorized.table.reshape(-1)
    n_cells = p12.size
    pi_cell = 1.0 / (i1 * i2)
    g_mat = pi_cell * prob.pair13.T
    n_ext, n_eq = g_mat.shape[0], prob.a_eq.shape[0]
    c = np.concatenate([pi_cell * p12, -prob.b_eq])
    a_ub = np.hstack([g_mat, -prob.a_eq.T])
    bounds = np.array([(0.0, 1.0)] * n_cells + [(-np.inf, np.inf)] * n_eq)
    return _Lp(-c, a_ub, np.zeros(n_ext), np.zeros((0, len(c))), np.zeros(0), bounds)


@cache
def _ns_extreme_tables() -> np.ndarray:
    """The 24 binary no-signalling extreme points, read-only: the 16
    deterministic tables, then the 8 PR boxes."""
    tables = np.concatenate([
        deterministic_behaviors((2, 2), (2, 2)),
        [pr_box(a, b, c).table for a, b, c in product(range(2), repeat=3)],
    ])
    tables.flags.writeable = False
    return tables


def random_ns_behavior(rng: np.random.Generator) -> Behavior:
    """Dirichlet mixture of the 24 binary no-signalling extreme points."""
    tables = _ns_extreme_tables()
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
    """Capacity-equals-distance check for one instance, as a JSON record:
    `verification_records` of a chunk of one."""
    return verification_records([p12], extension_class)[0]


def verification_records(p12s: list[Behavior], extension_class: ExtensionClass) -> list[dict]:
    """Capacity-equals-distance records, `RECORDS_PER_CALL` per HiGHS call.

    A record solves the distance LP only. Its ``distance`` is that LP's
    optimum (`_distance`), and its ``capacity`` is `_proven_capacity`, a
    lower bound on the capacity proven from the same LP's duals, so the two
    agree up to rounding exactly when the solver's optimum is right. A chunk
    of k records is one LP, the direct sum of theirs: kron(I_k, M) of
    `_record_matrices`, with c, b and the bounds gathered per record. The
    blocks share no row and no column, so the solution and the duals split
    back into each record's own. The problems of one chunk are built at a
    time. All behaviors share one set of alphabets.
    """
    shapes = {(p.inputs_per_party, p.outputs_per_party) for p in p12s}
    if len(shapes) > 1:
        raise ValueError("verification_records takes behaviors on one set of alphabets")
    records: list[dict] = []
    for start in range(0, len(p12s), RECORDS_PER_CALL):
        chunk = p12s[start:start + RECORDS_PER_CALL]
        probs = [ExtensionProblem(authorized=p12, extension_class=extension_class)
                 for p12 in chunk]
        lps, k = [_distance_lp(prob, matrices=False) for prob in probs], len(chunk)
        c, b_ub, b_eq, bounds = (np.concatenate([getattr(lp, name) for lp in lps])
                                 for name in ("c", "b_ub", "b_eq", "bounds"))
        a_ub, a_eq = _record_matrices(chunk[0].inputs_per_party, chunk[0].outputs_per_party,
                                      extension_class, k)
        res = _solve(_Lp(c, a_ub, b_ub, a_eq, b_eq, bounds))
        for prob, lp, x, ub_duals, eq_duals in zip(
                probs, lps, res.x.reshape(k, -1), res.ineqlin.marginals.reshape(k, -1),
                res.eqlin.marginals.reshape(k, -1)):
            capacity = _proven_capacity(prob, *_capacity_dual(prob, ub_duals, eq_duals))
            distance = _distance(lp, x, ub_duals, eq_duals)
            records.append({
                "behavior": behavior_to_json(prob.authorized),
                "class": prob.extension_class,
                "capacity": capacity,
                "distance": distance,
                "discrepancy": abs(capacity - distance),
            })
    return records


def _rounding_margin(k: int, magnitude):
    """Bound on the rounding error of a float sum whose terms pass through at
    most k roundings each, of absolute values summing to ``magnitude``: k eps
    times that, doubled to cover the rounding of the bound itself, plus k tiny
    for underflow."""
    finfo = np.finfo(float)
    return 2.0 * k * finfo.eps * magnitude + k * finfo.tiny


def _distance(lp: _Lp, x: np.ndarray, ub_duals: np.ndarray, eq_duals: np.ndarray) -> float:
    """The distance LP's optimum: its dual value b.y where the primal value
    c.x agrees with it to within rounding, else c.x, so that a gap shows.

    Both are the optimum in exact arithmetic, but the optimal extension is
    seldom unique, and the vertex HiGHS reaches, and how it rounds, depends
    on the other records of the sum. The dual polytope does not depend on
    P12 and its vertices are dyadic, so HiGHS nearly always computes y
    exactly and b.y is the same however the records are chunked. The
    exception is a y off its dyadic vertex by rounding, which 5 of 600
    single records of nonlocal PR-box mixtures and none of 600 random
    no-signalling ones gave; b.y may then move in its last bits.
    """
    primal = float(lp.c @ x)
    dual = float(lp.b_ub @ ub_duals + lp.b_eq @ eq_duals) + 0.0  # no -0.0
    magnitude = (lp.c @ np.abs(x) + np.abs(lp.b_ub) @ np.abs(ub_duals)
                 + np.abs(lp.b_eq) @ np.abs(eq_duals))
    k = len(x) + len(ub_duals) + len(eq_duals) + 2
    return dual if abs(primal - dual) <= _rounding_margin(k, magnitude) else primal


def _capacity_dual(prob: ExtensionProblem, ub_duals: np.ndarray,
                   eq_duals: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(h, nu, t) such that (h, nu + t nu0) is exactly a point of
    `anticollusion_capacity`'s LP, read off the distance LP's duals.

    `linprog` gives the duals of `_distance_lp` as sensitivities, at most 0 on
    its blocks u >= P12 - Q and u >= Q - P12. With lambda = -ub_duals and
    nu = -eq_duals, dual feasibility reads lambda1 + lambda2 <= pi/2 and
    A'nu >= pair13'(lambda1 - lambda2) = pi pair13'h - pi/2 pair13'1 for the
    [0,1]-kernel h = (lambda1 - lambda2)/pi + 1/2, where pi = 1/(i1 i2). So
    A'nu falls short of the capacity LP's A'nu >= pi pair13'h by a constant
    that nu0 makes up: the indicator of the leading rows of a_eq, which hold
    each extension variable once (the whole pin on cells, input pair (0, 0)'s
    pin rows on vertex weights), so A'nu0 = 1. t is the largest shortfall,
    plus `_rounding_margin` (k = n_cells + n_eq + 2), of the h clipped to
    [0, 1]: feasible whatever floats the solver returned, unless non-finite,
    which raises LpNumericalError.
    """
    i1, i2 = prob.authorized.inputs_per_party
    pi_cell = 1.0 / (i1 * i2)
    lambda1, lambda2 = -ub_duals.reshape(2, -1)
    h = np.clip((lambda1 - lambda2) / pi_cell + 0.5, 0.0, 1.0)
    nu = -eq_duals
    if not (np.isfinite(h).all() and np.isfinite(nu).all()):
        raise LpNumericalError("LP solver returned non-finite duals")
    test = (pi_cell * prob.pair13).T @ h  # pi pair13 is dyadic, so exact
    margin = _rounding_margin(len(h) + len(nu) + 2, test + np.abs(prob.a_eq).T @ np.abs(nu))
    return h, nu, float((test - prob.a_eq.T @ nu + margin).max())


def _proven_capacity(prob: ExtensionProblem, h: np.ndarray, nu: np.ndarray, t: float) -> float:
    """L_c = pi h.P12 - b.(nu + t nu0) at the point of `_capacity_dual`,
    less `_rounding_margin` (k = n_cells + n_eq + n0 + 4): a lower bound on
    the capacity, a maximum over that LP. It is clipped at 0, the value of
    h = 0 with nu = 0. At the distance LP's optimum it meets the distance.
    """
    i1, i2 = prob.authorized.inputs_per_party
    o1, o2 = prob.authorized.outputs_per_party
    p12, b = prob.authorized.table.reshape(-1), prob.b_eq
    n0 = i2 * p12.size if prob.extension_class == NO_SIGNALLING else o1 * o2
    pi_cell = 1.0 / (i1 * i2)
    value = pi_cell * (h @ p12) - b @ nu - t * b[:n0].sum()
    magnitude = (pi_cell * (h @ np.abs(p12)) + np.abs(b) @ np.abs(nu)
                 + abs(t) * np.abs(b[:n0]).sum())
    return max(0.0, float(value - _rounding_margin(len(h) + len(nu) + n0 + 4, magnitude)))


@cache
def _record_matrices(inputs: tuple[int, ...], outputs: tuple[int, ...],
                     extension_class: ExtensionClass, k: int) -> tuple[sparse.csr_array, ...]:
    """kron(I_k, M) for the inequality and the equality rows, in CSR form
    and read-only: M is one record's distance-LP matrix (`_distance_matrices`
    of the class rows), stored without explicit zeros."""
    sums = tuple(sparse.kron(sparse.identity(k), sparse.csr_array(m), format="csr") for m in
                 _distance_matrices(*_class_rows(inputs, outputs, extension_class)))
    for part in (v for m in sums for v in (m.data, m.indices, m.indptr)):
        part.flags.writeable = False
    return sums


def corpus_to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in records)
