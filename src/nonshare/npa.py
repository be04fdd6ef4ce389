"""Level-2 moment-matrix upper bounds for tilted-score collusion envelopes.

Builds the reduced 22-word moment relaxation over three binary-observable
parties, assembles the tilted pair scores

    I12(alpha) = alpha<A0> + <A0B0> + <A0B1> + <A1B0> - <A1B1>
    I13(alpha) = alpha<A0> + <A0C0> + <A0C1> + <A1C0> - <A1C1>

and maximizes I13 subject to the moment matrix being positive semidefinite
and I12 >= s. The relaxation is real symmetrized: one real variable per
adjoint pair of canonical words, an outer approximation of the complex
Hermitian problem. The embedded solver is a primal-dual interior-point
method (Nesterov-Todd directions, Mehrotra's predictor-corrector) whose
Schur complement is assembled without a matrix product and factored once per
step by LAPACK's LU (scipy's `getrf`/`getrs` wrappers), so its output does
not depend on the BLAS thread count. Each solution also carries an upper
bound proven from its dual pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from math import isfinite, sqrt

import numpy as np
from scipy.linalg import lapack

from .frontier import s13_max

Word = tuple[str, ...]

LETTERS = ("A0", "A1", "B0", "B1", "C0", "C1")

CERTIFIED_WIDTH = 1e-7  # the largest upper_bound - primal of a certified row

DEFAULT_EPS_ABS = 1e-9
DEFAULT_EPS_REL = 1e-9
DEFAULT_MAX_ITERS = 100000

BOUNDARY_BAND = 1e-6  # the slack that `assemble` allows above q(alpha)
STEP_FRACTION = 0.9
MIN_STEP = 1e-8
STALL_ITERS = 10
REFINE_STEPS = 4
ROW_AIM = 0.7


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
    words += [(p + i, q + j) for p, q in ("AB", "AC", "BC") for i in "01" for j in "01"]
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

    @cached_property
    def _gamma(self) -> _GammaMap:
        """The solver's map of Gamma, kept with the structure so that its
        Schur index tables are built once, at the first solve."""
        return _GammaMap(self.entry_vars)


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


@cache
def _default_structure() -> MomentStructure:
    return build_structure()  # one for every call: frozen, with a read-only entry map


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
    if not isfinite(s):
        raise ValueError("threshold s must be finite")
    if s > quantum_maximum(alpha) + BOUNDARY_BAND:
        raise ValueError("threshold s exceeds the quantum maximum")
    structure = structure if structure is not None else _default_structure()
    return MomentProblem(
        structure=structure,
        alpha=float(alpha),
        s=float(s),
        objective=_score_vector(structure, alpha, "C"),
        constraint=_score_vector(structure, alpha, "B"),
    )


@dataclass(frozen=True)
class MomentSolution:
    """Solver output with an upper bound proven from its dual pair (NaN with no
    dual). `certified` means the relaxation's value lies in [primal,
    upper_bound], at most CERTIFIED_WIDTH wide: primal is obj.x at an x with
    Gamma(x) proven positive definite and con.x >= s in exact arithmetic.
    `status` says how the solver stopped; `min_eig` is a diagnostic only."""

    primal: float
    dual: float
    upper_bound: float
    gap: float
    max_residual: float
    min_eig: float
    status: str
    certified: bool
    iterations: int


def moment_matrix(prob: MomentProblem, x: np.ndarray) -> np.ndarray:
    """Gamma(x): identity at constant entries, x_k at entries of variable k."""
    return prob.structure._gamma.linear(x) + prob.structure._gamma.constant


class _GammaMap:
    """The linear part of Gamma(x) = G0 + sum_k x_k G_k and its adjoint.

    Variable k sits at a group of strictly lower entries (a, b) and at their
    mirrors, so G_k = sum over the group of e_a e_b^T + e_b e_a^T; the groups
    are stored sorted by variable, and <G_k, Y> is twice the sum of group
    k's entries of a symmetric Y.
    """

    def __init__(self, entry: np.ndarray) -> None:
        self.entry = entry
        self.constant = entry < 0
        rows, cols = np.tril_indices(entry.shape[0], -1)
        var = entry[rows, cols]
        order = np.argsort(var, kind="stable")
        order = order[var[order] >= 0]
        self.a, self.b, self.var = rows[order], cols[order], var[order]
        self.flat = self.a * entry.shape[0] + self.b
        self.starts = np.flatnonzero(np.diff(self.var, prepend=-1))

    def linear(self, v: np.ndarray) -> np.ndarray:
        """sum_k v_k G_k."""
        return np.where(self.constant, 0.0, v[self.entry])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """(<G_k, Y>)_k for a symmetric Y."""
        return 2.0 * np.add.reduceat(y.take(self.flat), self.starts)

    @cached_property
    def _pairs(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """`schur`'s index tables over the slot pairs p <= q: the flat
        positions of (a_p, a_q), (b_p, b_q), (a_p, b_q) and (b_p, a_q) in nt
        and of (var_p, var_q) in M; then where the pairs p = q lie. They are
        intp, the type `take` and `bincount` index with: narrower tables
        (uint16 for 22 words) made each gather first cast a 214 KB copy,
        which grew the heap on every Newton step. In a fresh process (2
        cores, one BLAS thread) `npa-scan --alphas 0,0.5 --grid 4
        --max-iters 3200` took 0.19-0.22 s with uint16 tables and 0.15-0.17 s
        with intp ones, for the same bits and about 1 MB more peak memory."""
        d, n, m = self.entry.shape[0], self.starts.size, self.a.size
        a, b, var = (v.astype(np.intp) for v in (self.a, self.b, self.var))
        p = np.repeat(np.arange(m), np.arange(m, 0, -1))
        q = np.concatenate([np.arange(i, m) for i in range(m)])

        def table(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
            out = rows[p] * width
            out += cols[q]
            return out

        return ((table(a, a, d), table(b, b, d), table(a, b, d), table(b, a, d),
                 table(var, var, n)), np.flatnonzero(p == q))

    def schur(self, nt: np.ndarray) -> np.ndarray:
        """M_kj = <G_k, nt G_j nt> = 2 sum of Q_pq over the slots p of k and
        q of j, with Q_pq = nt_{a_p a_q} nt_{b_p b_q} + nt_{a_p b_q} nt_{b_p a_q}
        symmetric in (p, q). Slots are sorted by variable, so the sum H over
        p <= q is upper triangular and M = 2 (H + H^T) - 2 diag(D), D the sum
        over p = q: exactly symmetric. Gathers, products and np.bincount
        only, which adds in a fixed order: no matrix product, whose rounding
        would depend on how many BLAS threads share it."""
        (aa, bb, ab, ba, cell), diagonal = self._pairs
        n, flat = self.starts.size, nt.ravel()
        q = flat.take(aa) * flat.take(bb)
        q += flat.take(ab) * flat.take(ba)
        h = np.bincount(cell, weights=q, minlength=n * n).reshape(n, n)
        return 2.0 * (h + h.T) - np.diag(2.0 * np.bincount(self.var, weights=q[diagonal]))


def _pd_shift(a: np.ndarray) -> float:
    """The first delta of 0, h, 2h, 4h, ... (h the c below at delta = 0) for
    which a + delta I is proven positive definite; inf if a is not finite.
    Rump's theorem (BIT 46 (2006) 433-452): in IEEE 754 doubles rounding to
    nearest, a Cholesky without fast matrix products that completes on a
    symmetric n x n B proves lambda_min(B) >= -gamma_{n+1} / (1 - gamma_{n+1})
    tr(B), up to underflow. So delta passes when b = a + delta I has a positive
    diagonal and potrf completes on b's lower triangle less c I, with c over
    |b_ii| exceeding that bound plus the roundings of tr(b), c, b and b - c I.
    The scale is checked first: delta stays at most limit = max / (8n), so
    every sum here is finite, and a shift above n max|a_ij| is never needed
    (Gershgorin, up to c), which the doubling can overshoot by 2x; so a larger
    max|a_ij| than limit / (2n), NaN or inf gives inf without trying."""
    n, finfo = a.shape[0], np.finfo(float)
    eps, tiny, limit = finfo.eps, finfo.tiny, finfo.max / (8 * n)
    if not np.abs(a).max() <= limit / (2 * n):
        return float("inf")
    delta = 0.0
    while delta <= limit:
        diag = np.diag(a) + delta
        c = float((n + 2) * eps / (1 - (n + 2) * eps) * np.abs(diag).sum()
                  + 4 * n * (2 * n + 2 + np.abs(diag).max()) * tiny)
        b = a.copy()
        np.fill_diagonal(b, diag - c)
        if (diag > 0.0).all() and lapack.dpotrf(b, lower=1)[1] == 0:
            return delta
        delta = 2.0 * delta if delta else c
    return float("inf")


def dual_upper_bound(prob: MomentProblem, w: float, w_mat: np.ndarray) -> float:
    """Upper bound on the relaxation's value proven from any dual pair (w, W).

    w is the multiplier of the threshold row and W the matrix paired with
    Gamma; only W's lower triangle is read. G* is the adjoint of Gamma's
    linear part, rebuilt from the problem; nothing else is trusted. The
    constant entries of Gamma are its d diagonal ones, so <G0, W> = tr(W),
    and with wbar = max(w, 0) and r = obj + G*(W) + wbar con every feasible
    x obeys

        obj.x = tr(W) - s wbar + r.x - <W, Gamma(x)> - wbar (con.x - s)
              <= tr(W) - s wbar + |r|_1 + d delta,

    because Gamma(x) is PSD with unit diagonal, so |x_k| <= 1 and
    <W, Gamma(x)> >= lambda_min(W) tr(Gamma(x)) >= -delta d, with W + delta I
    proven positive definite by `_pd_shift`. The first two terms are the
    solver's dual value. Rounding is covered by a margin in the style of
    Jansson, Chaykin & Keil (SIAM J. Numer. Anal. 46 (2008)): a term that
    passes through at most k roundings is off by at most k eps times its
    absolute value. Each entry of W's lower triangle enters one sum, tr(W) or
    G*(W), of at most d(d+1)/2 terms, then the n-term 1-norm and the
    four-term total, so k = d(d+1)/2 + n + d + 4 covers every term; the
    margin doubles it.
    """
    d, n = prob.structure.n_words, prob.structure.n_variables
    w_mat = np.tril(w_mat) + np.tril(w_mat, -1).T
    w_bar, delta = max(w, 0.0), _pd_shift(w_mat)
    gmap = _GammaMap(prob.structure.entry_vars)
    residual = prob.objective + gmap.adjoint(w_mat) + w_bar * prob.constraint
    value = np.trace(w_mat) - prob.s * w_bar + np.abs(residual).sum() + d * delta
    magnitude = (
        np.abs(w_mat).sum()
        + (abs(prob.s) + np.abs(prob.constraint).sum()) * w_bar
        + np.abs(prob.objective).sum()
        + np.abs(residual).sum()
        + d * delta
    )
    eps = np.finfo(float).eps
    return float(value + 2.0 * (d * (d + 1) // 2 + n + d + 4) * eps * magnitude)


def lu_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor the Schur complement M once for every `lu_solve` of a step:
    LAPACK's partial-pivoting LU (getrf) of D M D, D = diag(M)^(-1/2).
    A zero pivot raises LinAlgError, and nothing warns."""
    scale = 1.0 / np.sqrt(np.diag(m))
    lu, piv, info = lapack.dgetrf(m * np.multiply.outer(scale, scale))
    if info > 0:
        raise np.linalg.LinAlgError(f"zero pivot {info} in the Schur complement")
    return scale, lu, piv


def lu_solve(factor: tuple[np.ndarray, np.ndarray, np.ndarray], r: np.ndarray) -> np.ndarray:
    """Solve M u = r from `lu_factor`'s factors (getrs)."""
    scale, lu, piv = factor
    return scale * lapack.dgetrs(lu, piv, scale * r)[0]


def _newton_step(gmap: _GammaMap, con: np.ndarray, w_mat: np.ndarray, z_mat: np.ndarray,
                 w: float, z: float, r_dual: np.ndarray, r_row: float):
    """One Nesterov-Todd step with Mehrotra's predictor-corrector: the step
    lengths (tx, tw) of the moment and dual sides and the direction
    (dx, dz, dW, dw).

    The scaling g, with g^T Z g = g^-1 W g^-T = diag(v) and nt = g g^T (so
    nt Z nt = W), comes from the SVD of chol(Z)^T chol(W). Eliminating dZ,
    dW and the row leaves the Schur complement M = (<G_k, nt G_j nt>) +
    (w / z) con con^T, built and LU-factored once for both directions and
    their refinement. A dW built from
    nt carries the rounding of |nt|^2, which grows as mu falls, so each
    direction is refined against the dual equations while that halves
    their residual.
    """
    ll_w, ll_z = np.linalg.cholesky(w_mat), np.linalg.cholesky(z_mat)
    u_svd, v, vt_svd = np.linalg.svd(ll_z.T @ ll_w)
    rs = 1.0 / np.sqrt(v)
    g = (ll_w @ vt_svd.T) * rs
    g_inv = (u_svd.T @ ll_z.T) * rs[:, None]
    nt = g @ g.T
    ratio = w / z
    factor = lu_factor(gmap.schur(nt) + ratio * np.multiply.outer(con, con))

    def direction(r_comp: np.ndarray, r_comp_row: float, row_target: float):
        """Solve with complementarity right-hand sides r_comp (block) and
        r_comp_row (row) and the row equation con.dx - dz = -row_target;
        dZ and dW are also returned scaled by g."""
        rhs = gmap.adjoint(r_comp) + con * (r_comp_row - ratio * row_target) - r_dual
        dx = lu_solve(factor, rhs)
        dw_mat = r_comp - nt @ gmap.linear(dx) @ nt
        dw_mat = (dw_mat + dw_mat.T) / 2.0
        dw = r_comp_row - ratio * (con @ dx + row_target)
        err = r_dual - gmap.adjoint(dw_mat) - con * dw
        for _ in range(REFINE_STEPS):
            u = lu_solve(factor, -err)
            du_mat = nt @ gmap.linear(u) @ nt
            trial = (dw_mat - (du_mat + du_mat.T) / 2.0, dw - ratio * (con @ u))
            trial_err = r_dual - gmap.adjoint(trial[0]) - con * trial[1]
            if not np.linalg.norm(trial_err) < 0.5 * np.linalg.norm(err):
                break
            dx, (dw_mat, dw), err = dx + u, trial, trial_err
        dz_s, dw_s = g.T @ gmap.linear(dx) @ g, g_inv @ dw_mat @ g_inv.T
        return dx, con @ dx + row_target, dz_s, dw_mat, dw, dw_s

    def max_step(scaled: np.ndarray, slack: float, d_slack: float) -> float:
        """Largest t <= 1 keeping diag(v) + t scaled PSD and slack + t d_slack >= 0."""
        lam = float(np.linalg.eigvalsh(scaled * np.multiply.outer(rs, rs))[0])
        t = 1.0 if lam >= -1.0 else -1.0 / lam
        return min(t, -slack / d_slack) if d_slack < 0.0 else t

    mu = (v @ v + w * z) / (z_mat.shape[0] + 1)
    dx, dz, dz_s, dw_mat, dw, dw_s = direction(-w_mat, -w, r_row)
    tx, tw = max_step(dz_s, z, dz), max_step(dw_s, w, dw)
    diag_v = np.diag(v)
    mu_aff = (np.sum((diag_v + tw * dw_s) * (diag_v + tx * dz_s))
              + (w + tw * dw) * (z + tx * dz)) / (z_mat.shape[0] + 1)
    sigma_mu = min(1.0, (mu_aff / mu) ** 3) * mu
    # the second-order term, through the Lyapunov operator of diag(v)
    second = (dw_s @ dz_s + dz_s @ dw_s) / np.add.outer(v, v)
    r_comp = sigma_mu * ((g * rs * rs) @ g.T) - w_mat - g @ second @ g.T
    # the row residual only shrinks by 1 - tx on a step tx, so x would reach
    # the threshold from outside; aiming at ROW_AIM of the predictor's step
    # carries it across, where the caller pins z to con.x - s
    r_comp_row = (sigma_mu - w * z - dw * dz) / z
    dx, dz, dz_s, dw_mat, dw, dw_s = direction(r_comp, r_comp_row, r_row / (ROW_AIM * tx))
    tx, tw = max_step(dz_s, z, dz), max_step(dw_s, w, dw)
    return STEP_FRACTION * tx, STEP_FRACTION * tw, dx, dz, dw_mat, dw


def _interior_point(
    prob: MomentProblem, eps_abs: float, eps_rel: float, max_iters: int
) -> MomentSolution:
    """Primal-dual path following on the relaxation and its dual

        max obj.x  s.t.  Z = Gamma(x) PSD,  z = con.x - s >= 0;
        min tr(W) - s w  s.t.  <G_k, W> + con_k w = -obj_k,  W PSD, w >= 0,

    from x = 0, z = 1, W = I, w = 1. Z is Gamma(x) itself, and once x
    satisfies the threshold, z is con.x - s, so from then on every iterate
    is feasible and obj.x a lower bound on the relaxation's maximum. Both
    sides step 0.9 of the way to their boundary. The loop stops on the eps
    tests, or stalls on a failed factorization (or any floating-point
    overflow or invalid value), a step below 1e-8 or ten iterations without
    a new best iterate, ranked by the largest of the three relative errors;
    a stalled solve returns its best iterate. It never raises.
    """
    gmap = prob.structure._gamma
    obj, con, s = prob.objective, prob.constraint, prob.s
    d = prob.structure.n_words
    b_scale = 1.0 + sqrt(s * s + np.count_nonzero(gmap.constant))
    c_scale = 1.0 + float(np.linalg.norm(obj))
    x, z, w_mat, w = np.zeros(prob.structure.n_variables), 1.0, np.eye(d), 1.0
    status, it, best, since_best = "optimal_inaccurate", 0, None, 0
    while True:
        z_mat = moment_matrix(prob, x)
        r_dual = -obj - gmap.adjoint(w_mat) - con * w
        r_row = con @ x - s - z
        primal, dual = float(obj @ x), float(np.trace(w_mat) - s * w)
        pres, dres, gap = abs(r_row), float(np.linalg.norm(r_dual)), abs(primal - dual)
        current = (x, w_mat, w, z_mat, primal, dual, pres, dres, gap)
        scale = 1.0 + abs(primal) + abs(dual)
        if (
            pres <= eps_abs + eps_rel * b_scale
            and dres <= eps_abs + eps_rel * c_scale
            and gap <= eps_abs + eps_rel * scale
        ):
            status, best = "optimal", (0.0, current)
            break
        error = max(pres / b_scale, dres / c_scale, gap / scale)
        if best is None or error < best[0]:
            best, since_best = (error, current), 0
        else:
            since_best += 1
        if it == max_iters or since_best == STALL_ITERS:
            break
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                tx, tw, dx, dz, dw_mat, dw = _newton_step(
                    gmap, con, w_mat, z_mat, w, z, r_dual, r_row)
        except (np.linalg.LinAlgError, FloatingPointError):
            break
        if max(tx, tw) < MIN_STEP:
            break
        x, z = x + tx * dx, z + tx * dz
        if con @ x - s > 0.0:
            z = con @ x - s
        w_mat, w = w_mat + tw * dw_mat, w + tw * dw
        it += 1
    x, w_mat, w, z_mat, primal, dual, pres, dres, gap = best[1]
    upper = dual_upper_bound(prob, w, w_mat)
    row = sum(Fraction(c) * Fraction(v) for c, v in zip(con.tolist(), x.tolist()) if c)
    certified = upper - primal <= CERTIFIED_WIDTH and row >= s and _pd_shift(z_mat) == 0.0
    return MomentSolution(primal, dual, upper, gap, max(pres, dres),
                          float(np.linalg.eigvalsh(z_mat)[0]), status, certified, it)


def sdp_solve(
    prob: MomentProblem,
    *,
    eps_abs: float = DEFAULT_EPS_ABS,
    eps_rel: float = DEFAULT_EPS_REL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> MomentSolution:
    """Solve the relaxation by a primal-dual interior-point method.

    Stops when the threshold-row residual, the dual residual and the gap
    meet eps_abs + eps_rel * (1 + scale), or stalls (see `_interior_point`).
    An interior-point method has no ray test for infeasibility, so
    thresholds within BOUNDARY_BAND of the quantum maximum q(alpha), whose
    feasible sets have almost no interior, are treated apart. Above q(alpha)
    the level-2 maximum U of I12 is solved first, and a proven U below s
    makes the row `infeasible` (NaN values, no main solve); at or below
    q(alpha) no U is solved, since U >= q(alpha) >= s. Any other row in the
    band is a `boundary` row: never certified, with the numbers of its
    stall-bounded main solve. `iterations` counts the solve that gave the
    numbers.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    for name, eps in (("eps_abs", eps_abs), ("eps_rel", eps_rel)):
        if not (isfinite(eps) and eps >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {eps}")
    q = quantum_maximum(prob.alpha)
    if prob.s <= q - BOUNDARY_BAND:
        return _interior_point(prob, eps_abs, eps_rel, max_iters)
    if prob.s > q:
        # max I12 subject to Gamma PSD and the vacuous row 0 >= -1
        i12 = replace(prob, objective=prob.constraint,
                      constraint=np.zeros_like(prob.constraint), s=-1.0)
        bound = _interior_point(i12, eps_abs, eps_rel, max_iters)
        if prob.s > bound.upper_bound:
            nan, inf = float("nan"), float("inf")
            return MomentSolution(nan, nan, nan, inf, inf, -inf, "infeasible", False,
                                  bound.iterations)
    return replace(_interior_point(prob, eps_abs, eps_rel, max_iters), status="boundary",
                   certified=False)


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
    rows: list[ScanRow] = []
    for alpha in map(float, alphas):
        grid = np.linspace(classical_bound(alpha), quantum_maximum(alpha), grid_points)
        for s in map(float, grid):
            prob = assemble(alpha, s)
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
