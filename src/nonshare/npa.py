"""Level-2 moment-matrix upper bounds for tilted-score collusion envelopes.

Builds the reduced 22-word moment relaxation over three binary-observable
parties, assembles the tilted pair scores

    I12(alpha) = alpha<A0> + <A0B0> + <A0B1> + <A1B0> - <A1B1>
    I13(alpha) = alpha<A0> + <A0C0> + <A0C1> + <A1C0> - <A1C1>

and maximizes I13 subject to the moment matrix being positive semidefinite
and I12 >= s. The relaxation is real symmetrized: one real variable per
adjoint pair of canonical words, an outer approximation of the complex
Hermitian problem. The embedded solver is a homogeneous self-dual conic
splitting (Douglas-Rachford on the optimality embedding) with a structured
KKT solve (block elimination, Sherman-Morrison on the threshold row and a
scalar Schur step for tau; no dense factorization), PSD projection by
eigendecomposition, and residual-balanced step-metric adaptation. Each
solution also carries an upper bound proven from its dual vector alone.
The module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .frontier import SQRT2, s13_max

Word = tuple[str, ...]

LETTERS = ("A0", "A1", "B0", "B1", "C0", "C1")

EPS_GAP = 1e-6
EPS_AFFINE = 1e-5
EPS_PSD = 1e-7

DEFAULT_EPS_ABS = 1e-9
DEFAULT_EPS_REL = 1e-9
DEFAULT_MAX_ITERS = 100000


def classical_bound(alpha: float) -> float:
    """Largest tilted score of a local deterministic pair: 2 + alpha."""
    return 2.0 + alpha


def quantum_maximum(alpha: float) -> float:
    """Largest tilted score of any quantum pair: sqrt(8 + 2 alpha^2)."""
    return sqrt(8.0 + 2.0 * alpha * alpha)


def build_word_set() -> list[Word]:
    """The 22 reduced length-<=2 words: identity, singletons, same-party
    products in fixed order, and all cross-party pairs."""
    words: list[Word] = [()]
    words += [(letter,) for letter in LETTERS]
    words += [("A0", "A1"), ("B0", "B1"), ("C0", "C1")]
    for x in ("A0", "A1"):
        for y in ("B0", "B1"):
            words.append((x, y))
    for x in ("A0", "A1"):
        for z in ("C0", "C1"):
            words.append((x, z))
    for y in ("B0", "B1"):
        for z in ("C0", "C1"):
            words.append((y, z))
    return words


def _reduce(word: Word) -> Word:
    """Stable party sort, then cancel adjacent equal letters (X^2 = I).

    Different-party letters commute and are grouped A < B < C; the order of
    letters within one party is preserved, never globally sorted.
    """
    for letter in word:
        if letter not in LETTERS:
            raise ValueError(f"unknown letter {letter!r}")
    ordered = sorted(word, key=lambda letter: letter[0])
    out: list[str] = []
    for letter in ordered:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def canonicalize(word: Word) -> Word:
    """Canonical variable key of a word.

    The key is the lexicographically smaller of the reduced word and its
    reduced adjoint (letters reversed); real symmetrization identifies the
    two moments, so both map to one variable.
    """
    return min(_reduce(word), _reduce(tuple(reversed(word))))


@dataclass(frozen=True)
class MomentStructure:
    """Entry map of the moment matrix over canonical word variables.

    ``entry_vars[i, j]`` is the variable id of canonical(row_i^† col_j), or
    -1 where the product reduces to the identity (constant entry 1).
    """

    words: tuple[Word, ...]
    variables: tuple[Word, ...]
    entry_vars: np.ndarray

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_variables(self) -> int:
        return len(self.variables)


def build_structure(words: list[Word] | None = None) -> MomentStructure:
    word_tuple = tuple(words) if words is not None else tuple(build_word_set())
    n = len(word_tuple)
    index: dict[Word, int] = {}
    variables: list[Word] = []
    entry = np.full((n, n), -1, dtype=np.int64)
    for i, wi in enumerate(word_tuple):
        for j, wj in enumerate(word_tuple):
            key = canonicalize(tuple(reversed(wi)) + wj)
            if key == ():
                continue
            if key not in index:
                index[key] = len(variables)
                variables.append(key)
            entry[i, j] = index[key]
    entry.flags.writeable = False
    return MomentStructure(words=word_tuple, variables=tuple(variables), entry_vars=entry)


def _score_vector(structure: MomentStructure, alpha: float, partner: str) -> np.ndarray:
    """Coefficients of alpha<A0> + <A0P0> + <A0P1> + <A1P0> - <A1P1>."""
    lookup = {key: k for k, key in enumerate(structure.variables)}
    vec = np.zeros(structure.n_variables)
    terms = [
        (("A0",), alpha),
        (("A0", partner + "0"), 1.0),
        (("A0", partner + "1"), 1.0),
        (("A1", partner + "0"), 1.0),
        (("A1", partner + "1"), -1.0),
    ]
    for word, coeff in terms:
        key = canonicalize(word)
        if key not in lookup:
            raise ValueError(f"word set lacks a variable for {word}")
        vec[lookup[key]] += coeff
    return vec


@dataclass(frozen=True)
class MomentProblem:
    """Assembled instance: maximize objective.y s.t. Gamma(y) >= 0, constraint.y >= s."""

    structure: MomentStructure
    alpha: float
    s: float
    objective: np.ndarray
    constraint: np.ndarray


def assemble(
    alpha: float, s: float, structure: MomentStructure | None = None
) -> MomentProblem:
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [0, 2]")
    if s > quantum_maximum(alpha) + 1e-6:
        raise ValueError("threshold s exceeds the quantum maximum")
    structure = structure if structure is not None else build_structure()
    return MomentProblem(
        structure=structure,
        alpha=float(alpha),
        s=float(s),
        objective=_score_vector(structure, alpha, "C"),
        constraint=_score_vector(structure, alpha, "B"),
    )


@dataclass(frozen=True)
class MomentSolution:
    """Solver output with the five certificate diagnostics and a proven
    upper bound on the relaxation's value (NaN when there is no dual)."""

    primal: float
    dual: float
    upper_bound: float
    gap: float
    max_residual: float
    min_eig: float
    status: str
    certified: bool
    iterations: int


def certify_point(sol: MomentSolution) -> bool:
    """Five-way conjunction: optimal status, dual present, small gap,
    small affine residual, moment matrix PSD up to eigenvalue tolerance."""
    return bool(
        sol.status == "optimal"
        and np.isfinite(sol.dual)
        and sol.gap < EPS_GAP
        and sol.max_residual < EPS_AFFINE
        and sol.min_eig >= -EPS_PSD
    )


class _SvecOps:
    """Isometric packing of symmetric matrices into R^(d(d+1)/2)."""

    def __init__(self, d: int) -> None:
        self.d = d
        rows, cols = np.tril_indices(d)
        self.tril = rows * d + cols  # flat index of each svec slot's entry
        self.scale = np.where(rows == cols, 1.0, SQRT2)
        # slot[i, j] is the svec slot of entry (max(i, j), min(i, j))
        self.slot = np.empty((d, d), dtype=np.intp)
        self.slot[rows, cols] = self.slot[cols, rows] = np.arange(rows.size)

    def svec(self, mat: np.ndarray) -> np.ndarray:
        return mat.take(self.tril) * self.scale

    def smat(self, vec: np.ndarray) -> np.ndarray:
        return (vec / self.scale)[self.slot]


@dataclass(frozen=True)
class ConicData:
    """Standard form min c.x, A x + slack = b, slack in R+ x PSD(d).

    Row 0 of A carries the threshold inequality and is stored dense. Every
    later row pins one svec slot of Gamma(x), which is one variable or the
    constant 1, so it has at most one nonzero: ``vals[i]`` in column
    ``cols[i]`` (0 and 0.0 for a constant slot).
    """

    a0: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([[self.a0 @ x], self.vals * x[self.cols]])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.a0 * y[0] + np.bincount(self.cols, self.vals * y[1:], self.c.size)


def _conic_data(prob: MomentProblem, ops: _SvecOps) -> ConicData:
    """The PSD block pins the svec of Gamma(x) = G0 + sum_k x_k G_k with G0
    the identity contribution."""
    entry_tril = prob.structure.entry_vars.take(ops.tril)
    constant = entry_tril < 0
    return ConicData(
        a0=-prob.constraint,
        cols=np.where(constant, 0, entry_tril),
        vals=np.where(constant, 0.0, -ops.scale),
        b=np.concatenate([[-prob.s], np.where(constant, ops.scale, 0.0)]),
        c=-prob.objective,
    )


class KKTFactor(NamedTuple):
    """Block elimination of diag(1_n, sigma 1_m, 1) + Q for `lu_solve`."""

    data: ConicData
    sigma: float
    e: np.ndarray  # diagonal part of K = I + A^T A / sigma
    ea: np.ndarray  # a0 / e
    pivot: float  # sigma + a0 . (a0 / e), the Sherman-Morrison pivot
    p: np.ndarray  # K^-1 (c - A^T b / sigma)
    d: np.ndarray  # c + A^T b / sigma
    tau_pivot: float  # Schur complement of the tau entry


def _k_solve(e: np.ndarray, ea: np.ndarray, pivot: float, v: np.ndarray) -> np.ndarray:
    """K^-1 v by Sherman-Morrison on the diagonal plus the threshold row."""
    return v / e - ea * ((ea @ v) / pivot)


def lu_factor(data: ConicData, sigma: float) -> KKTFactor:
    """Factor the KKT matrix diag(1_n, sigma 1_m, 1) + Q of the embedding,

        Q = [[0, A^T, c], [-A, 0, b], [-c^T, -b^T, 0]].

    Eliminating the y block leaves K = I + A^T A / sigma, which is diagonal
    plus the rank-1 term of row 0 because every later row of A has at most
    one nonzero; tau then follows from a scalar Schur complement.
    """
    a0, b, c = data.a0, data.b, data.c
    e = 1.0 + np.bincount(data.cols, data.vals * data.vals, c.size) / sigma
    ea = a0 / e
    pivot = sigma + a0 @ ea
    atb = data.rmatvec(b) / sigma
    p = _k_solve(e, ea, pivot, c - atb)
    d = c + atb
    return KKTFactor(data, sigma, e, ea, pivot, p, d, 1.0 + (b @ b) / sigma + d @ p)


def lu_solve(f: KKTFactor, r: np.ndarray) -> np.ndarray:
    """Solve (diag(1_n, sigma 1_m, 1) + Q) w = r with a `lu_factor` result."""
    data, sigma = f.data, f.sigma
    n = data.c.size
    r_x, r_y, r_t = r[:n], r[n:-1], r[-1]
    h = _k_solve(f.e, f.ea, f.pivot, r_x - data.rmatvec(r_y) / sigma)
    w_t = (r_t + (data.b @ r_y) / sigma + f.d @ h) / f.tau_pivot
    w = np.empty_like(r)
    w_x, w_y = w[:n], w[n:-1]
    np.subtract(h, f.p * w_t, out=w_x)
    # w_y = (r_y + A w_x - b w_t) / sigma, with A w_x written in place
    w_y[0] = data.a0 @ w_x
    np.multiply(data.vals, w_x[data.cols], out=w_y[1:])
    w_y += r_y
    w_y -= data.b * w_t
    w_y /= sigma
    w[-1] = w_t
    return w


def moment_matrix(prob: MomentProblem, x: np.ndarray) -> np.ndarray:
    """Gamma(x): identity at constant entries, x_k at entries of variable k."""
    entry = prob.structure.entry_vars
    gamma = (entry == -1).astype(float)
    np.copyto(gamma, x[entry], where=entry >= 0)
    return gamma


def dual_upper_bound(prob: MomentProblem, y: np.ndarray) -> float:
    """Upper bound on the relaxation's value proven from any dual vector y.

    A, b and c are rebuilt from the problem; nothing else is trusted. With
    ybar = y whose threshold entry is clipped at 0, every feasible x obeys

        -c.x = b.ybar - (A^T ybar + c).x - ybar.slack
             <= b.ybar + |A^T ybar + c|_1 + tr(Gamma) max(0, -lambda_min(Ybar)),

    because Gamma(x) is PSD with unit diagonal, so |x_k| <= 1, and
    ybar.slack >= lambda_min(Ybar) tr(Gamma) with Ybar = smat(ybar[1:]).
    Rounding is covered by a margin in the style of Jansson, Chaykin & Keil
    (SIAM J. Numer. Anal. 2008): each computed sum has at most k = m + n
    terms, so it is off by at most k eps times the sum of its terms' absolute
    values, and LAPACK's eigenvalues are exact for a matrix within about
    d eps |Ybar|_F of the computed smat; the margin doubles both.
    """
    ops = _SvecOps(prob.structure.n_words)
    data = _conic_data(prob, ops)
    y_bar = np.array(y, dtype=float)
    y_bar[0] = max(y_bar[0], 0.0)
    residual = data.rmatvec(y_bar) + data.c
    y_mat = ops.smat(y_bar[1:])
    trace = float(ops.d)
    value = (
        data.b @ y_bar
        + np.abs(residual).sum()
        + trace * max(0.0, -float(np.linalg.eigvalsh(y_mat)[0]))
    )
    y_abs = np.abs(y_bar)
    magnitude = (
        np.abs(data.b) @ y_abs
        + np.abs(data.a0).sum() * y_abs[0]
        + np.abs(data.vals) @ y_abs[1:]
        + np.abs(data.c).sum()
        + np.abs(residual).sum()
        + trace * np.linalg.norm(y_mat)
    )
    eps = np.finfo(float).eps
    return float(value + 2.0 * (data.b.size + data.c.size + ops.d + 3) * eps * magnitude)


def sdp_solve(
    prob: MomentProblem,
    *,
    eps_abs: float = DEFAULT_EPS_ABS,
    eps_rel: float = DEFAULT_EPS_REL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> MomentSolution:
    """Homogeneous self-dual embedding solved by relaxed Douglas-Rachford.

    The embedding variable u = (x, y, tau) is split against the cone
    C = R^n x (R+ x PSD) x R+ and the skew optimality operator Q; the metric
    weights the y block by sigma, re-balanced when the primal and dual
    residuals drift apart. The fixed-point sequence is Anderson-accelerated
    (memory 10) with a residual-decrease safeguard. Each difference of
    residuals g and of z + g enters a preallocated history once, when its
    iterate does; the history shifts one column when full, is solved and
    applied through views of its columns in use, and empties on a sigma
    re-balance. Every 50 iterations, and at the end, the iterate is
    recovered from the projection of z that the last step already made.
    Termination uses unscaled residual and gap thresholds
    eps_abs + eps_rel * (1 + scale). Gamma(x) has unit diagonal, so |x_k| <= 1,
    the relaxation is bounded and the check looks for no improving ray.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    for name, eps in (("eps_abs", eps_abs), ("eps_rel", eps_rel)):
        if not (isfinite(eps) and eps >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {eps}")
    ops = _SvecOps(prob.structure.n_words)
    data = _conic_data(prob, ops)
    b_vec, c_vec = data.b, data.c
    m, n = b_vec.size, c_vec.size
    dim = n + m + 1
    sigma = 1.0
    m_diag = np.concatenate([np.ones(n), np.full(m, sigma), [1.0]])
    lu = lu_factor(data, sigma)
    relax = 1.5

    def step(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """u = z projected onto C, the fixed-point residual g at z and |g|."""
        u = z.copy()
        u[n] = max(z[n], 0.0)
        mat = ops.smat(z[n + 1 : n + m])
        eigvals, eigvecs = np.linalg.eigh(mat)
        np.maximum(eigvals, 0.0, out=eigvals)
        u[n + 1 : n + m] = ops.svec((eigvecs * eigvals) @ eigvecs.T)
        u[-1] = max(z[-1], 0.0)
        w = lu_solve(lu, m_diag * (2.0 * u - z))
        g = relax * (w - u)
        return u, g, sqrt(g @ g)

    def recover(z: np.ndarray, u: np.ndarray):
        """The iterate (x, y, pres, dres) scaled by tau, or None when
        tau <= 1e-12, from z and u = z projected onto C."""
        tau = u[-1]
        if tau <= 1e-12:
            return None
        slack_raw = sigma * (u[n : n + m] - z[n : n + m])
        x = u[:n] / tau
        y = u[n : n + m] / tau
        pres = float(np.linalg.norm(data.matvec(x) + slack_raw / tau - b_vec))
        dres = float(np.linalg.norm(data.rmatvec(y) + c_vec))
        return x, y, pres, dres

    z = np.zeros(dim)
    z[-1] = 1.0
    b_scale = 1.0 + float(np.linalg.norm(b_vec))
    c_scale = 1.0 + float(np.linalg.norm(c_vec))
    check_every = 50
    next_adapt = 200
    eps_cert = 1e-10
    aa_memory = 10
    status = "optimal_inaccurate"
    # Anderson history, oldest column first: column j of dg_hist is
    # g_(j+1) - g_j and of dzg_hist is (z_(j+1) - z_j) + (g_(j+1) - g_j);
    # k columns are in use. z and g are rebound, never written in place,
    # while z_prev and g_prev hold them.
    hist = np.empty((2, dim, aa_memory))
    dg_hist, dzg_hist = hist
    hist_flat = hist.reshape(-1)
    k = 0
    z_prev = g_prev = None
    u, g, g_norm = step(z)

    for it in range(1, max_iters + 1):
        if z_prev is not None:
            if k == aa_memory:
                # hist is row-major, so moving its data back by one element
                # moves every column one place left; column k - 1 is
                # overwritten below
                hist_flat[:-1] = hist_flat[1:]
            else:
                k += 1
            dg = np.subtract(g, g_prev, out=dg_hist[:, k - 1])
            np.add(z - z_prev, dg, out=dzg_hist[:, k - 1])
        z_prev, g_prev = z, g
        accepted = False
        if k >= 2:
            coeff, *_ = np.linalg.lstsq(dg_hist[:, :k], g, rcond=None)
            z_aa = z + g - dzg_hist[:, :k] @ coeff
            u_aa, g_aa, g_aa_norm = step(z_aa)
            if g_aa_norm < g_norm:
                z, u, g, g_norm, accepted = z_aa, u_aa, g_aa, g_aa_norm, True
        if not accepted:
            z = z + g
            u, g, g_norm = step(z)
        if it % check_every != 0 and it != max_iters:
            continue
        iterate = recover(z, u)
        pres = dres = np.inf
        if iterate is not None:
            x, y, pres, dres = iterate
            pobj = float(c_vec @ x)
            dobj = float(-b_vec @ y)
            gap = abs(pobj - dobj)
            if (
                pres <= eps_abs + eps_rel * b_scale
                and dres <= eps_abs + eps_rel * c_scale
                and gap <= eps_abs + eps_rel * (1.0 + abs(pobj) + abs(dobj))
            ):
                status = "optimal"
                break
        u_y = u[n : n + m]
        bty = float(b_vec @ u_y)
        if bty < -1e-12:
            y_cert = u_y / (-bty)
            if float(np.linalg.norm(data.rmatvec(y_cert))) <= eps_cert:
                status = "infeasible"
                break
        if it >= next_adapt and np.isfinite(pres) and np.isfinite(dres):
            next_adapt *= 2
            ratio = (pres / b_scale) / max(dres / c_scale, 1e-300)
            balance = float(np.clip(sqrt(ratio), 0.1, 10.0))
            if abs(balance - 1.0) > 1e-3:
                # residual imbalance: a dominant primal residual calls for a
                # smaller y-metric weight, and vice versa
                new_sigma = sigma / balance
                k = 0
                z_prev = g_prev = None
                z[n : n + m] = u_y - sigma * (u_y - z[n : n + m]) / new_sigma
                sigma = new_sigma
                m_diag[n : n + m] = sigma
                lu = lu_factor(data, sigma)
                u, g, g_norm = step(z)

    # u = z projected onto C holds for the final z too: a re-balance at the
    # last check steps again from the moved z
    iterate = recover(z, u)
    if status == "infeasible" or iterate is None:
        nan, inf = float("nan"), float("inf")
        return MomentSolution(nan, nan, nan, inf, inf, -inf, status, False, it)
    x, y, pres, dres = iterate
    primal = float(-(c_vec @ x))
    dual = float(b_vec @ y)
    sol = MomentSolution(
        primal=primal,
        dual=dual,
        upper_bound=dual_upper_bound(prob, y),
        gap=abs(primal - dual),
        max_residual=max(pres, dres),
        min_eig=float(np.linalg.eigvalsh(moment_matrix(prob, x))[0]),
        status=status,
        certified=False,
        iterations=it,
    )
    return replace(sol, certified=certify_point(sol))


@dataclass(frozen=True)
class ScanRow:
    """One grid point of a scan and the whole record of its solve."""

    alpha: float
    s: float
    solution: MomentSolution


def scan(
    alphas: list[float],
    grid_points: int = 60,
    *,
    eps_abs: float = DEFAULT_EPS_ABS,
    eps_rel: float = DEFAULT_EPS_REL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[ScanRow]:
    """Per-tilt threshold grids from the classical bound to the quantum
    maximum, inclusive, each point solved and flagged."""
    if grid_points < 2:
        raise ValueError("grid needs at least 2 points")
    structure = build_structure()
    rows: list[ScanRow] = []
    for alpha in map(float, alphas):
        grid = np.linspace(classical_bound(alpha), quantum_maximum(alpha), grid_points)
        for s in map(float, grid):
            prob = assemble(alpha, s, structure)
            sol = sdp_solve(prob, eps_abs=eps_abs, eps_rel=eps_rel, max_iters=max_iters)
            rows.append(ScanRow(alpha, s, sol))
    return rows


@dataclass(frozen=True)
class SanityReport:
    """Untilted scan rows against the closed form sqrt(8 - s^2)."""

    max_dev: float  # over the certified rows; NaN if none certifies
    certified_mask: tuple[bool, ...]


def alpha0_report(rows: list[ScanRow]) -> SanityReport:
    """Largest |primal - sqrt(8 - s^2)| over the certified untilted rows."""
    untilted = [row for row in rows if row.alpha == 0.0]
    devs = [
        abs(row.solution.primal - s13_max(row.s)) for row in untilted if row.solution.certified
    ]
    return SanityReport(
        max_dev=max(devs) if devs else float("nan"),
        certified_mask=tuple(row.solution.certified for row in untilted),
    )


def alpha0_sanity(grid_points: int = 60, *, max_iters: int = DEFAULT_MAX_ITERS) -> SanityReport:
    """Deviation of certified untilted bounds from sqrt(8 - s^2)."""
    return alpha0_report(scan([0.0], grid_points, max_iters=max_iters))


CSV_HEADER = "alpha,s,primal,dual,gap,max_residual,min_eig,status,certified"


def scan_to_csv(rows: list[ScanRow]) -> str:
    """Diagnostic table, floats at 9 significant digits."""
    lines = [CSV_HEADER]
    for r in rows:
        sol = r.solution
        lines.append(
            f"{r.alpha:.9g},{r.s:.9g},{sol.primal:.9g},{sol.dual:.9g},{sol.gap:.9g},"
            f"{sol.max_residual:.9g},{sol.min_eig:.9g},{sol.status},"
            f"{'yes' if sol.certified else 'no'}"
        )
    return "\n".join(lines) + "\n"
