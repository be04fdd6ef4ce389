"""Extension polytope LPs: vulnerability, shadow distance, capacity equality."""

import json

import numpy as np
import pytest
from scipy.optimize import linprog

from nonshare import extlp
from nonshare.behaviors import (
    Behavior,
    check_no_signalling,
    chsh_kernel,
    copied_seed_extension,
    deterministic_behaviors,
    game_score,
    lhv_behavior,
    marginal,
    pr_box,
    relabel_13_to_12,
)
from nonshare.extlp import (
    CLASSICAL,
    NO_SIGNALLING,
    ExtensionProblem,
    LpInfeasibleError,
    LpNumericalError,
    anticollusion_capacity,
    collusive_vulnerability,
    corpus_to_jsonl,
    random_lhv_model,
    random_ns_behavior,
    shadow_tv_distance,
    verification_record,
    _Lp,
    _capacity_lp,
    _distance_lp,
    _lp_minima,
)
from nonshare.qkernel import bell_strategy, born_behavior


def det_pair(f1: int, f2: int) -> Behavior:
    table = deterministic_behaviors((2, 2), (2, 2))[4 * f1 + f2]
    return Behavior(2, (2, 2), (2, 2), table)


def uniform_pair() -> Behavior:
    return Behavior(2, (2, 2), (2, 2), np.full((2, 2, 2, 2), 0.25))


def one_variable_lp(c: float, a_ub=None, b_ub=None) -> _Lp:
    """min c x over x >= 0, under the rows a_ub x <= b_ub if given."""
    a_ub = np.zeros((0, 1)) if a_ub is None else np.array(a_ub)
    b_ub = np.zeros(0) if b_ub is None else np.array(b_ub)
    return _Lp(np.array([c]), a_ub, b_ub, np.zeros((0, 1)), np.zeros(0),
               np.array([[0.0, np.inf]]))


def test_lp_solve_infeasible_and_unbounded():
    with pytest.raises(LpInfeasibleError):
        _lp_minima(one_variable_lp(1.0, [[1.0]], [-1.0]))
    # no LP built from an ExtensionProblem is unbounded, so HiGHS's status 3
    # can only mean numerical trouble
    with pytest.raises(LpNumericalError, match="status 3"):
        _lp_minima(one_variable_lp(-1.0))


def test_extension_problem_validation():
    with pytest.raises(LpInfeasibleError):
        ExtensionProblem(authorized=pr_box(), extension_class=CLASSICAL)
    with pytest.raises(ValueError, match="unknown extension class"):
        ExtensionProblem(authorized=pr_box(), extension_class="quantum")
    signalling = np.zeros((2, 2, 2, 2))
    for t1, t2 in np.ndindex(2, 2):
        signalling[t1, t2, t2, 0] = 1.0
    with pytest.raises(ValueError, match="signals"):
        ExtensionProblem(
            authorized=Behavior(2, (2, 2), (2, 2), signalling),
            extension_class=NO_SIGNALLING,
        )
    wide = Behavior(2, (2, 3), (2, 2), np.full((2, 3, 2, 2), 0.25))
    with pytest.raises(ValueError, match="capped"):
        ExtensionProblem(authorized=wide, extension_class=NO_SIGNALLING)


def test_classical_vulnerability_exhaustive_vertex_check():
    # P12 at a deterministic vertex is extremal, so admissible classical
    # extensions only vary the third player's function; the LP optimum must
    # match a brute-force maximum over those 4 choices.
    kernel = chsh_kernel()
    for f1 in range(4):
        for f2 in range(4):
            prob = ExtensionProblem(authorized=det_pair(f1, f2), extension_class=CLASSICAL)
            lp_value = collusive_vulnerability(prob, kernel)
            brute = max(game_score(det_pair(f1, f3), kernel) for f3 in range(4))
            assert lp_value == pytest.approx(brute, abs=1e-9), (f1, f2)


def test_best_classical_point_is_fully_shareable():
    p12 = det_pair(0, 0)  # both answer 0: score 3/4
    kernel = chsh_kernel()
    assert game_score(p12, kernel) == pytest.approx(0.75)
    for cls in (CLASSICAL, NO_SIGNALLING):
        prob = ExtensionProblem(authorized=p12, extension_class=cls)
        assert collusive_vulnerability(prob, kernel) == pytest.approx(0.75, abs=1e-9)
        assert anticollusion_capacity(prob) == pytest.approx(0.0, abs=1e-9)
        assert shadow_tv_distance(prob) == pytest.approx(0.0, abs=1e-9)


def test_pr_box_anchors():
    prob = ExtensionProblem(authorized=pr_box(), extension_class=NO_SIGNALLING)
    kernel = chsh_kernel()
    assert game_score(pr_box(), kernel) == pytest.approx(1.0)
    # monogamy of the extremal box forces the colluder to chance level
    assert collusive_vulnerability(prob, kernel) == pytest.approx(0.5, abs=1e-9)
    cap = anticollusion_capacity(prob)
    dist = shadow_tv_distance(prob)
    assert cap == pytest.approx(0.5, abs=1e-9)
    assert dist == pytest.approx(0.5, abs=1e-9)
    assert abs(cap - dist) < 1e-9


@pytest.mark.parametrize("v", [0.0, 0.3, 0.5, 0.55, 0.6, 0.75, 0.8, 0.9, 1.0])
def test_noisy_pr_box_capacity_equals_distance(v):
    # nonlocal instances between the local case and the PR box; the random
    # NS corpus draws local behaviors only, so it compares 0 with 0
    p12 = Behavior(2, (2, 2), (2, 2), v * pr_box().table + (1.0 - v) * uniform_pair().table)
    prob = ExtensionProblem(authorized=p12, extension_class=NO_SIGNALLING)
    expected = max(0.0, v - 0.5)
    assert anticollusion_capacity(prob) == pytest.approx(expected, abs=1e-9)
    assert shadow_tv_distance(prob) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "name, cls, capacity, distance",
    [
        ("bell", NO_SIGNALLING, 0.20710678118654716, 0.2071067811865474),
        ("random-ns", NO_SIGNALLING, 3.469446951953614e-16, 0.0),
        ("random-lhv", CLASSICAL, 0.0, 0.0),
    ],
)
def test_capacity_and_distance_are_pinned(name, cls, capacity, distance):
    # HiGHS optima on fixed instances: a change in the LP data shows here
    p12 = {
        "bell": lambda: born_behavior(bell_strategy()),
        "random-ns": lambda: random_ns_behavior(np.random.default_rng(3)),
        "random-lhv": lambda: lhv_behavior(random_lhv_model(np.random.default_rng(2026))),
    }[name]()
    prob = ExtensionProblem(authorized=p12, extension_class=cls)
    assert anticollusion_capacity(prob) == pytest.approx(capacity, abs=1e-12)
    assert shadow_tv_distance(prob) == pytest.approx(distance, abs=1e-12)


def test_ns_class_dominates_classical():
    rng = np.random.default_rng(3)
    model = random_lhv_model(rng)
    p12 = lhv_behavior(model)
    kernel = chsh_kernel()
    v_c = collusive_vulnerability(
        ExtensionProblem(authorized=p12, extension_class=CLASSICAL), kernel
    )
    v_ns = collusive_vulnerability(
        ExtensionProblem(authorized=p12, extension_class=NO_SIGNALLING), kernel
    )
    assert v_ns >= v_c - 1e-9


def test_lhv_behaviors_have_zero_capacity():
    rng = np.random.default_rng(17)
    for cls in (CLASSICAL, NO_SIGNALLING):
        for _ in range(5):
            p12 = lhv_behavior(random_lhv_model(rng))
            prob = ExtensionProblem(authorized=p12, extension_class=cls)
            assert anticollusion_capacity(prob) == pytest.approx(0.0, abs=1e-8)
            assert shadow_tv_distance(prob) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize(
    "inputs, outputs",
    [((1, 2), (2, 2)), ((2, 1), (2, 2)), ((2, 2), (1, 2)), ((2, 2), (2, 1))],
)
def test_size_one_alphabets(inputs, outputs):
    # with one input or one output on a side, every pair behavior is shared
    # exactly by a colluder that copies party 2: capacity = distance = 0
    verts = deterministic_behaviors(inputs, outputs)
    assert len(verts) == outputs[0] ** inputs[0] * outputs[1] ** inputs[1]
    p12 = Behavior(2, inputs, outputs, verts.mean(axis=0))
    for cls in (CLASSICAL, NO_SIGNALLING):
        record = verification_record(p12, cls)
        assert record["capacity"] == pytest.approx(0.0, abs=1e-9)
        assert record["distance"] == pytest.approx(0.0, abs=1e-9)


def test_capacity_equals_distance_on_random_ns_corpus():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(25):
        record = verification_record(random_ns_behavior(rng), NO_SIGNALLING)
        worst = max(worst, record["discrepancy"])
    assert worst < 1e-8


def test_quantum_behavior_capacity_positive():
    p12 = born_behavior(bell_strategy())
    prob = ExtensionProblem(authorized=p12, extension_class=NO_SIGNALLING)
    cap = anticollusion_capacity(prob)
    dist = shadow_tv_distance(prob)
    assert cap > 1e-3  # nonlocal points are not exactly shareable
    assert abs(cap - dist) < 1e-8
    with pytest.raises(LpInfeasibleError):
        ExtensionProblem(authorized=p12, extension_class=CLASSICAL)


def test_collusive_vulnerability_kernel_shape_guard():
    prob = ExtensionProblem(authorized=uniform_pair(), extension_class=NO_SIGNALLING)
    from nonshare.behaviors import GameKernel

    with pytest.raises(ValueError, match="alphabets"):
        collusive_vulnerability(prob, GameKernel(values=np.full((2, 2, 2), 0.5)))


def test_random_lhv_model_is_dyadic():
    rng = np.random.default_rng(5)
    model = random_lhv_model(rng)
    assert np.array_equal(model.weights * 256, np.round(model.weights * 256))
    for resp in model.responses:
        assert np.array_equal(resp * 256, np.round(resp * 256))


def test_copied_seed_lower_bounds_classical_lp():
    rng = np.random.default_rng(99)
    kernel = chsh_kernel()
    for _ in range(10):
        model = random_lhv_model(rng)
        p12 = lhv_behavior(model)
        ext = copied_seed_extension(model, model.responses[1])
        assert np.array_equal(marginal(ext, (1, 2)).table, p12.table)
        p13 = relabel_13_to_12(marginal(ext, (1, 3)), reference=p12)
        witness = game_score(p13, kernel)
        a12 = game_score(p12, kernel)
        assert witness == pytest.approx(a12, abs=1e-14)
        prob = ExtensionProblem(authorized=p12, extension_class=CLASSICAL)
        assert collusive_vulnerability(prob, kernel) >= witness - 1e-9


def test_random_ns_behavior_valid():
    rng = np.random.default_rng(12)
    for _ in range(5):
        assert check_no_signalling(random_ns_behavior(rng)).passed


def test_verification_record_and_jsonl():
    rng = np.random.default_rng(8)
    record = verification_record(random_ns_behavior(rng), NO_SIGNALLING)
    assert set(record) == {"behavior", "class", "capacity", "distance", "discrepancy"}
    assert record["class"] == NO_SIGNALLING
    assert record["discrepancy"] == abs(record["capacity"] - record["distance"])
    text = corpus_to_jsonl([record, record])
    lines = text.strip().split("\n")
    assert len(lines) == 2
    parsed = json.loads(lines[0])
    assert parsed["capacity"] == record["capacity"]


def test_one_highs_call_per_record_and_none_for_locality(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(extlp, "linprog", counted)
    lhv = lhv_behavior(random_lhv_model(np.random.default_rng(4)))
    ExtensionProblem(authorized=lhv, extension_class=CLASSICAL)
    assert len(calls) == 0
    for p12, cls in ((lhv, CLASSICAL), (lhv, NO_SIGNALLING), (pr_box(), NO_SIGNALLING)):
        calls.clear()
        verification_record(p12, cls)
        assert len(calls) == 1, cls


def lp_instances():
    rng = np.random.default_rng(31)
    for k in range(11):
        v = k / 10
        p12 = Behavior(2, (2, 2), (2, 2), v * pr_box().table + (1.0 - v) * uniform_pair().table)
        yield p12, NO_SIGNALLING
    yield born_behavior(bell_strategy()), NO_SIGNALLING
    for k in range(20):
        yield lhv_behavior(random_lhv_model(rng)), (CLASSICAL, NO_SIGNALLING)[k % 2]


def test_direct_sum_keeps_each_lp_optimum():
    # the blocks share no row and no column, so solving them together gives
    # each one's own minimum
    for p12, cls in lp_instances():
        prob = ExtensionProblem(authorized=p12, extension_class=cls)
        cap, dist = _capacity_lp(prob), _distance_lp(prob)
        together = _lp_minima(cap, dist)
        apart = [_lp_minima(cap)[0], _lp_minima(dist)[0]]
        assert together == pytest.approx(apart, abs=1e-12), (cls, together, apart)


def chsh_forms(table: np.ndarray) -> np.ndarray:
    """S_xy = E00 + E01 + E10 + E11 - 2 E_xy for the four input pairs."""
    corr = np.einsum("xyab,ab->xy", table, [[1.0, -1.0], [-1.0, 1.0]])
    return corr.sum() - 2.0 * corr


def is_vertex_mixture(table: np.ndarray) -> bool:
    """Feasibility LP: weights over the 16 deterministic pairs that mix to table."""
    verts = deterministic_behaviors((2, 2), (2, 2)).reshape(16, -1)
    a_eq = np.vstack([verts.T, np.ones((1, 16))])
    b_eq = np.concatenate([table.reshape(-1), [1.0]])
    res = linprog(np.zeros(16), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def admits_classical_class(p12: Behavior) -> bool:
    try:
        ExtensionProblem(authorized=p12, extension_class=CLASSICAL)
    except LpInfeasibleError:
        return False
    return True


def test_locality_by_chsh_facets_matches_a_vertex_mixture_lp():
    rng = np.random.default_rng(77)
    checked = nonlocal_ = 0
    while checked < 200:
        v = rng.random()
        box = pr_box(*rng.integers(0, 2, size=3)).table
        p12 = Behavior(2, (2, 2), (2, 2),
                       v * box + (1.0 - v) * random_ns_behavior(rng).table)
        if abs(np.abs(chsh_forms(p12.table)).max() - 2.0) <= 1e-6:
            continue
        local = is_vertex_mixture(p12.table)
        assert admits_classical_class(p12) == local
        checked += 1
        nonlocal_ += not local
    assert 20 <= nonlocal_ <= 180  # both sides of the facets are exercised


def test_locality_at_the_facets_and_beyond():
    for table in deterministic_behaviors((2, 2), (2, 2)):
        assert np.abs(chsh_forms(table)).max() == 2.0  # on a facet, exactly
        assert admits_classical_class(Behavior(2, (2, 2), (2, 2), table))
    for p12 in [born_behavior(bell_strategy())] + [
            pr_box(a, b, c) for a, b, c in np.ndindex(2, 2, 2)]:
        with pytest.raises(LpInfeasibleError, match="not local"):
            ExtensionProblem(authorized=p12, extension_class=CLASSICAL)
