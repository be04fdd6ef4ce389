"""Extension polytope LPs: vulnerability, shadow distance, capacity equality."""

import json
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from nonshare import extlp
from nonshare.behaviors import (
    Behavior,
    GameKernel,
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
    RECORDS_PER_CALL,
    ExtensionProblem,
    LpInfeasibleError,
    LpNumericalError,
    anticollusion_capacity,
    corpus_to_jsonl,
    random_lhv_model,
    random_ns_behavior,
    shadow_tv_distance,
    verification_record,
    verification_records,
    _Lp,
    _capacity_dual,
    _capacity_lp,
    _class_rows,
    _distance,
    _distance_lp,
    _minimum,
    _nonnegative,
    _proven_capacity,
    _record_matrices,
)
from nonshare.qkernel import bell_strategy, born_behavior


def collusive_vulnerability(prob: ExtensionProblem, kernel: GameKernel) -> float:
    """Best relabelled-test score any admissible extension grants the colluder:
    the fixed-game witness that separates quantum from classical pairs.

    No-signalling class: variables are the full tripartite table under the
    marginal pin and parties 1 and 2's no-signalling, which imply the rest.
    Classical class: variables are weights over deterministic tripartite strategies.
    """
    i1, i2 = prob.authorized.inputs_per_party
    o1, o2 = prob.authorized.outputs_per_party
    if kernel.values.shape != (i1, i2, o1, o2):
        raise ValueError("kernel must live on the relabelled (1,3) pair alphabets")
    # uniform inputs; i1 * i2 is a power of 2, so the division is exact
    c = (kernel.values / (i1 * i2)).reshape(-1) @ prob.pair13
    n_ext = len(c)
    lp = _Lp(-c, np.zeros((0, n_ext)), np.zeros(0), prob.a_eq, prob.b_eq, _nonnegative(n_ext))
    return -_minimum(lp)


def det_pair(f1: int, f2: int) -> Behavior:
    table = deterministic_behaviors((2, 2), (2, 2))[4 * f1 + f2]
    return Behavior(2, (2, 2), (2, 2), table)


def uniform_pair() -> Behavior:
    return Behavior(2, (2, 2), (2, 2), np.full((2, 2, 2, 2), 0.25))


def noisy_pr_box(v: float) -> Behavior:
    return Behavior(2, (2, 2), (2, 2), v * pr_box().table + (1.0 - v) * uniform_pair().table)


def one_variable_lp(c: float, a_ub=None, b_ub=None) -> _Lp:
    """min c x over x >= 0, under the rows a_ub x <= b_ub if given."""
    a_ub = np.zeros((0, 1)) if a_ub is None else np.array(a_ub)
    b_ub = np.zeros(0) if b_ub is None else np.array(b_ub)
    return _Lp(np.array([c]), a_ub, b_ub, np.zeros((0, 1)), np.zeros(0),
               np.array([[0.0, np.inf]]))


def minimum(lp: _Lp) -> float:
    """One LP solved alone, on its own matrices."""
    return _minimum(lp)


def test_lp_solve_infeasible_and_unbounded():
    with pytest.raises(LpInfeasibleError):
        minimum(one_variable_lp(1.0, [[1.0]], [-1.0]))
    # no LP built from an ExtensionProblem is unbounded, so HiGHS's status 3
    # can only mean numerical trouble
    with pytest.raises(LpNumericalError, match="status 3"):
        minimum(one_variable_lp(-1.0))


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
    prob = ExtensionProblem(authorized=noisy_pr_box(v), extension_class=NO_SIGNALLING)
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
        assert verification_records([p12, p12], cls) == [record, record]


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
    driver = extlp.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return driver(*args, **kwargs)

    monkeypatch.setattr(extlp, "linprog", counted)
    lhv = lhv_behavior(random_lhv_model(np.random.default_rng(4)))
    ExtensionProblem(authorized=lhv, extension_class=CLASSICAL)
    assert len(calls) == 0
    for p12, cls in ((lhv, CLASSICAL), (lhv, NO_SIGNALLING), (pr_box(), NO_SIGNALLING)):
        calls.clear()
        verification_record(p12, cls)
        assert len(calls) == 1, cls


def lhv_pairs(n: int) -> list[Behavior]:
    rng = np.random.default_rng(31)
    return [lhv_behavior(random_lhv_model(rng)) for _ in range(n)]


@pytest.mark.parametrize("n", [1, 4, 5, 6, 11])
def test_chunked_records_equal_single_records(monkeypatch, n):
    # the first chunk mixes nonlocal boxes with local pairs and the Bell
    # behavior, so one kron(I_k, M) sum holds optima of every kind
    lhv = lhv_pairs(7)
    boxes = {0: 0.6, 2: 0.8, 4: 1.0}
    pool = [noisy_pr_box(0.6), lhv[0], noisy_pr_box(0.8), born_behavior(bell_strategy()),
            noisy_pr_box(1.0), *lhv[1:]]
    singles = [verification_record(p12, NO_SIGNALLING) for p12 in pool[:n]]
    calls = []
    driver = extlp.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return driver(*args, **kwargs)

    monkeypatch.setattr(extlp, "linprog", counted)
    records = verification_records(pool[:n], NO_SIGNALLING)
    assert len(calls) == -(-n // 5)  # five records per HiGHS call
    # repr round-trips every float, so equal lines are equal bits
    assert corpus_to_jsonl(records) == corpus_to_jsonl(singles)
    for k, v in boxes.items():
        if k < n:
            assert records[k]["capacity"] == pytest.approx(v - 0.5, abs=1e-9)
            assert records[k]["distance"] == pytest.approx(v - 0.5, abs=1e-9)


def test_chunked_records_take_one_set_of_alphabets():
    narrow = Behavior(2, (1, 2), (2, 2), deterministic_behaviors((1, 2), (2, 2)).mean(axis=0))
    with pytest.raises(ValueError, match="one set of alphabets"):
        verification_records([pr_box(), narrow], NO_SIGNALLING)
    with pytest.raises(LpInfeasibleError):
        verification_records([lhv_pairs(1)[0], pr_box()], CLASSICAL)


def lp_instances():
    for k in range(11):
        yield noisy_pr_box(k / 10), NO_SIGNALLING
    yield born_behavior(bell_strategy()), NO_SIGNALLING
    for k, p12 in enumerate(lhv_pairs(20)):
        yield p12, (CLASSICAL, NO_SIGNALLING)[k % 2]


def test_direct_sum_keeps_each_lp_optimum():
    # the blocks share no row and no column, so solving them together gives
    # each one's own optimum: a record's capacity and distance equal those
    # of the two LPs solved alone on their own matrices
    for p12, cls in lp_instances():
        prob = ExtensionProblem(authorized=p12, extension_class=cls)
        record = verification_record(p12, cls)
        together = [record["capacity"], record["distance"]]
        apart = [anticollusion_capacity(prob), shadow_tv_distance(prob)]
        assert together == pytest.approx(apart, abs=1e-12), (cls, together, apart)


def test_record_matrices_are_built_once_and_never_changed():
    _record_matrices.cache_clear()
    verification_records(lhv_pairs(11), NO_SIGNALLING)  # chunks of 5, 5 and 1
    for p12 in lhv_pairs(3):
        verification_record(p12, NO_SIGNALLING)
        verification_record(p12, CLASSICAL)
    assert _record_matrices.cache_info().misses == 3  # (NS, 5), (NS, 1), (classical, 1)
    for cls, k in ((NO_SIGNALLING, 5), (NO_SIGNALLING, 1), (CLASSICAL, 1)):
        cached = _record_matrices((2, 2), (2, 2), cls, k)
        fresh = _record_matrices.__wrapped__((2, 2), (2, 2), cls, k)
        for m, ref in zip(cached, fresh):
            assert m.shape == ref.shape and m.format == ref.format == "csr"
            for part, ref_part in ((m.data, ref.data), (m.indices, ref.indices),
                                   (m.indptr, ref.indptr)):
                assert np.array_equal(part, ref_part)
                assert not part.flags.writeable
            assert np.all(m.data != 0.0)  # no explicit zeros
    assert _record_matrices.cache_info().misses == 3


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


def four_family_rows(p12: Behavior) -> tuple[np.ndarray, np.ndarray]:
    """Every equality family of the no-signalling extension polytope, stated
    in full: per-input-triple normalization, the (1,2)-marginal pin for every
    colluder input, and no-signalling for each of the three parties (88 rows
    of rank 46 on binary alphabets)."""
    (i1, i2), (o1, o2) = p12.inputs_per_party, p12.outputs_per_party
    shape = (i1, i2, i2, o1, o2, o2)
    n_vars = int(np.prod(shape))
    basis = np.eye(n_vars).reshape(shape + (n_vars,))
    blocks = [basis.sum(axis=(3, 4, 5)), np.moveaxis(basis.sum(axis=5), 2, 0)]
    for k in range(3):
        summed = np.moveaxis(basis.sum(axis=3 + k), k, 0)
        blocks.append(summed[1:] - summed[0])
    rows = np.concatenate([block.reshape(-1, n_vars) for block in blocks])
    rhs = np.concatenate([np.ones(i1 * i2 * i2), np.tile(p12.table.reshape(-1), i2)])
    return rows, np.pad(rhs, (0, len(rows) - len(rhs)))


def test_equality_block_sizes():
    lhv = lhv_pairs(1)[0]
    ns = ExtensionProblem(authorized=lhv, extension_class=NO_SIGNALLING)
    assert ns.a_eq.shape == (48, 64) and np.linalg.matrix_rank(ns.a_eq) == 46
    assert len(four_family_rows(lhv)[0]) == 88
    classical = ExtensionProblem(authorized=lhv, extension_class=CLASSICAL)
    assert classical.a_eq.shape == (16, 64) and np.linalg.matrix_rank(classical.a_eq) == 9


@pytest.mark.parametrize("i1, i2, o1, o2", list(product((1, 2), repeat=4)))
def test_ns_rows_span_the_four_families(i1, i2, o1, o2):
    # the pin and two no-signalling families state the same affine system
    # as all four families: equal rank alone and stacked, with and without
    # the right-hand side, on a generic local pair of each shape
    verts = deterministic_behaviors((i1, i2), (o1, o2))
    weights = np.random.default_rng(i1 + 2 * i2 + 4 * o1 + 8 * o2).dirichlet(np.ones(len(verts)))
    p12 = Behavior(2, (i1, i2), (o1, o2), np.tensordot(weights, verts, axes=1))
    prob = ExtensionProblem(authorized=p12, extension_class=NO_SIGNALLING)
    ref_rows, ref_rhs = four_family_rows(p12)
    rank = np.linalg.matrix_rank
    assert rank(prob.a_eq) == rank(ref_rows) == rank(np.vstack([prob.a_eq, ref_rows]))
    system = np.column_stack([prob.a_eq, prob.b_eq])
    reference = np.column_stack([ref_rows, ref_rhs])
    assert rank(system) == rank(reference) == rank(np.vstack([system, reference]))


def reference_problem(prob: ExtensionProblem) -> SimpleNamespace:
    """``prob`` with its equality block replaced by every family in full: the
    four no-signalling families, or the classical pin plus the weights'
    normalization row."""
    if prob.extension_class == NO_SIGNALLING:
        a_eq, b_eq = four_family_rows(prob.authorized)
    else:
        a_eq = np.vstack([prob.a_eq, np.ones((1, prob.a_eq.shape[1]))])
        b_eq = np.append(prob.b_eq, 1.0)
    return SimpleNamespace(authorized=prob.authorized, pair13=prob.pair13, a_eq=a_eq, b_eq=b_eq)


def test_reference_rows_give_the_same_optima():
    instances = [(noisy_pr_box(v), NO_SIGNALLING) for v in (0.0, 0.6, 1.0)]
    instances += [(noisy_pr_box(0.0), CLASSICAL), (born_behavior(bell_strategy()), NO_SIGNALLING)]
    instances += [(p12, cls) for p12 in lhv_pairs(10) for cls in (CLASSICAL, NO_SIGNALLING)]
    for p12, cls in instances:
        prob = ExtensionProblem(authorized=p12, extension_class=cls)
        ref = reference_problem(prob)
        assert ref.a_eq.shape[0] > prob.a_eq.shape[0]
        for build in (_capacity_lp, _distance_lp):
            ours, theirs = minimum(build(prob)), minimum(build(ref))
            assert ours == pytest.approx(theirs, abs=1e-12), (cls, build.__name__)
        kernel = chsh_kernel()
        assert collusive_vulnerability(prob, kernel) == pytest.approx(
            collusive_vulnerability(ref, kernel), abs=1e-12)


def test_class_rows_are_shared_and_read_only():
    _class_rows.cache_clear()
    for cls in (NO_SIGNALLING, CLASSICAL):
        first, second = (ExtensionProblem(authorized=p12, extension_class=cls)
                         for p12 in lhv_pairs(2))
        for name in ("a_eq", "pair13"):
            shared = getattr(first, name)
            assert getattr(second, name) is shared
            assert not shared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 1.0
        # the pin's right-hand side is each problem's own P12
        copies = 2 if cls == NO_SIGNALLING else 1
        for prob in (first, second):
            pin = np.tile(prob.authorized.table.reshape(-1), copies)
            assert np.array_equal(prob.b_eq[:len(pin)], pin)
            assert not prob.b_eq[len(pin):].any()
    assert _class_rows.cache_info().misses == 2


def nonlocal_draws(n: int, seed: int) -> list[Behavior]:
    """v (a random PR-box orientation) + (1 - v) (a random local mixture) with
    v in [3/4, 1): the box's CHSH form is at least 6v - 2 > 2, so every draw
    is nonlocal."""
    rng = np.random.default_rng(seed)
    verts = deterministic_behaviors((2, 2), (2, 2))
    draws = []
    for _ in range(n):
        v = rng.uniform(0.75, 1.0)
        box = pr_box(*rng.integers(0, 2, size=3)).table
        local = np.tensordot(rng.dirichlet(np.ones(len(verts))), verts, axes=1)
        draws.append(Behavior(2, (2, 2), (2, 2), v * box + (1.0 - v) * local))
    return draws


def solve_with_duals(monkeypatch, p12s: list[Behavior], cls) -> list[tuple]:
    """The records of `verification_records`, each with its problem and the
    duals of its block, split from the HiGHS results the call made."""
    results = []
    driver = extlp.linprog

    def kept(*args, **kwargs):
        results.append(driver(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(extlp, "linprog", kept)
    records = verification_records(p12s, cls)
    monkeypatch.undo()
    duals = []
    for res, start in zip(results, range(0, len(p12s), RECORDS_PER_CALL)):
        k = len(p12s[start:start + RECORDS_PER_CALL])
        duals += zip(np.split(res.ineqlin.marginals, k), np.split(res.eqlin.marginals, k))
    probs = [ExtensionProblem(authorized=p12, extension_class=cls) for p12 in p12s]
    return list(zip(records, probs, duals))


def exact_capacity_value(prob: ExtensionProblem, h, nu, t: float) -> Fraction:
    """pi h.P12 - b.(nu + t nu0) in exact arithmetic, after checking that
    (h, nu + t nu0) is a point of the capacity LP: 0 <= h <= 1 and
    A'(nu + t nu0) >= pi pair13'h, column by column."""
    (i1, i2), table = prob.authorized.inputs_per_party, prob.authorized.table
    pi = Fraction(1, i1 * i2)
    a = prob.a_eq.astype(int)
    assert np.array_equal(a, prob.a_eq)
    # nu0: the whole pin on cells, the input pair (0, 0)'s pin rows on weights
    n0 = i2 * table.size if prob.extension_class == NO_SIGNALLING else table[0, 0].size
    assert (a[:n0].sum(axis=0) == 1).all()
    h_exact = [Fraction(v) for v in h]
    assert all(0 <= v <= 1 for v in h_exact)
    nu_exact = [Fraction(v) + (Fraction(t) if r < n0 else 0) for r, v in enumerate(nu)]
    for j in range(a.shape[1]):
        dual_side = sum(a[r, j] * nu_exact[r] for r in np.flatnonzero(a[:, j]))
        test_side = pi * sum(Fraction(prob.pair13[c, j]) * h_exact[c]
                             for c in np.flatnonzero(prob.pair13[:, j]))
        assert dual_side >= test_side, j
    return (pi * sum(hc * Fraction(p) for hc, p in zip(h_exact, table.reshape(-1)))
            - sum(Fraction(b) * n for b, n in zip(prob.b_eq, nu_exact)))


def test_proven_capacity_against_exact_arithmetic(monkeypatch):
    # 12 nonlocal draws, the Bell behavior and the PR box under the
    # no-signalling class; local pairs under both classes
    nonlocal_ = nonlocal_draws(12, 2026) + [born_behavior(bell_strategy()), pr_box()]
    cases = (solve_with_duals(monkeypatch, nonlocal_, NO_SIGNALLING)
             + solve_with_duals(monkeypatch, lhv_pairs(4), NO_SIGNALLING)
             + solve_with_duals(monkeypatch, lhv_pairs(6), CLASSICAL))
    assert len(cases) >= 20
    for k, (record, prob, (ub_duals, eq_duals)) in enumerate(cases):
        h, nu, t = _capacity_dual(prob, ub_duals, eq_duals)
        assert record["capacity"] == _proven_capacity(prob, h, nu, t)
        exact = exact_capacity_value(prob, h, nu, t)
        assert record["capacity"] == 0.0 or Fraction(record["capacity"]) <= exact, k
        # proven from the duals alone, yet as tight as the distance allows
        assert 0.0 <= record["distance"] - record["capacity"] <= 1e-12, (k, record)
        if k < len(nonlocal_):
            assert record["capacity"] > 0.0


def test_corrupted_duals_give_a_smaller_capacity_or_an_error(monkeypatch):
    # any multipliers are repaired into a valid but weaker bound; NaN is a
    # solver failure, never a number
    [(record, prob, (ub_duals, eq_duals))] = solve_with_duals(
        monkeypatch, [noisy_pr_box(0.9)], NO_SIGNALLING)
    assert record["capacity"] == pytest.approx(0.4, abs=1e-12)
    rng = np.random.default_rng(0)
    for scale in (1e-1, 1e-6, 1e-12):
        for _ in range(4):
            noisy = eq_duals + rng.normal(scale=scale, size=eq_duals.shape)
            h, nu, t = _capacity_dual(prob, ub_duals, noisy)
            lower = _proven_capacity(prob, h, nu, t)
            exact = exact_capacity_value(prob, h, nu, t)  # checks feasibility too
            assert lower == 0.0 or Fraction(lower) <= exact
            if scale == 1e-1:
                assert lower < record["capacity"] - 1e-3
    with pytest.raises(LpNumericalError, match="non-finite duals"):
        _capacity_dual(prob, ub_duals, np.full_like(eq_duals, np.nan))


def test_distance_is_the_dual_value_where_the_primal_confirms_it(monkeypatch):
    # the duals are dyadic and the same for any chunking, so nonlocal records
    # keep their bits in a chunk of five; a primal value that moved off the
    # dual value beyond rounding is reported as it is
    draws = nonlocal_draws(15, 7)
    singles = [verification_record(p12, NO_SIGNALLING) for p12 in draws]
    assert corpus_to_jsonl(verification_records(draws, NO_SIGNALLING)) == corpus_to_jsonl(singles)
    [(record, prob, (ub_duals, eq_duals))] = solve_with_duals(monkeypatch, draws[:1],
                                                              NO_SIGNALLING)
    lp = _distance_lp(prob)
    dual = float(lp.b_ub @ ub_duals + lp.b_eq @ eq_duals)
    assert all(Fraction(v).denominator <= 16 for v in np.concatenate([ub_duals, eq_duals]))
    assert record["distance"] == dual
    x = np.zeros(len(lp.c))  # only c.x is read
    x[-1] = (dual + 1e-9) / lp.c[-1]
    assert _distance(lp, x, ub_duals, eq_duals) == pytest.approx(dual + 1e-9, abs=1e-15)


def test_distance_does_not_depend_on_presolve():
    # extlp solves without presolve; each record's distance keeps the bits of
    # its own distance LP solved alone by scipy's default, presolve on
    pools = {NO_SIGNALLING: nonlocal_draws(100, 30) + lhv_pairs(10), CLASSICAL: lhv_pairs(10)}
    for cls, pool in pools.items():
        for p12, record in zip(pool, verification_records(pool, cls)):
            lp = _distance_lp(ExtensionProblem(authorized=p12, extension_class=cls))
            res = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                          bounds=lp.bounds, method="highs")
            presolved = _distance(lp, res.x, res.ineqlin.marginals, res.eqlin.marginals)
            assert float_bits(record["distance"]) == float_bits(presolved), (cls, record)
            assert 0.0 <= record["distance"] - record["capacity"] <= 1e-12, (cls, record)


def module_lps(monkeypatch) -> list[tuple[tuple, dict]]:
    """The arguments of every `extlp.linprog` call this module makes on a
    small corpus: chunk sums of k = 1, ..., 5 records in both classes (three
    of each), capacity, vulnerability and distance LPs, and the infeasible
    and unbounded one-variable toys."""
    calls = []
    driver = extlp.linprog

    def kept(*args, **kwargs):
        calls.append((args, kwargs))
        return driver(*args, **kwargs)

    monkeypatch.setattr(extlp, "linprog", kept)
    rng = np.random.default_rng(27)
    pools = {CLASSICAL: lhv_pairs(15),
             NO_SIGNALLING: [random_ns_behavior(rng) for _ in range(10)] + nonlocal_draws(5, 27)}
    for cls, pool in pools.items():
        for k in range(1, 6):
            for start in range(3):
                verification_records(pool[start * 5:start * 5 + k], cls)
    probs = [ExtensionProblem(authorized=p12, extension_class=cls)
             for cls, pool in pools.items() for p12 in pool[::3]]
    kernel = GameKernel(rng.uniform(0.0, 1.0, (2, 2, 2, 2)))
    for prob in probs:
        anticollusion_capacity(prob)
        collusive_vulnerability(prob, kernel)
        shadow_tv_distance(prob)
    for c, a_ub, b_ub in ((1.0, [[1.0]], [-1.0]), (-1.0, None, None)):
        with pytest.raises((LpInfeasibleError, LpNumericalError)):
            minimum(one_variable_lp(c, a_ub, b_ub))
    monkeypatch.undo()
    return calls


def float_bits(v) -> bytes | None:
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def test_driver_matches_scipy_linprog_bit_for_bit(monkeypatch):
    # extlp.linprog hands HiGHS the model and options of scipy's linprog with
    # presolve off, so the two agree to the bit on every LP of this module
    calls = module_lps(monkeypatch)
    assert len(calls) == 62
    statuses = []
    for args, kwargs in calls:
        ours = extlp.linprog(*args, **kwargs)
        theirs = linprog(*args, **kwargs, method="highs", options={"presolve": False})
        statuses.append(ours.status)
        assert (ours.status, ours.nit, ours.message) == (theirs.status, theirs.nit, theirs.message)
        for name in ("x", "fun", "ineqlin", "eqlin"):
            a, b = getattr(ours, name), getattr(theirs, name)
            if name.endswith("lin"):
                a, b = a.marginals, b.marginals
            assert float_bits(a) == float_bits(b), name
    assert statuses.count(0) == 60 and sorted(statuses[-2:]) == [2, 3]


def duplicated_unsorted(a: np.ndarray) -> sparse.csr_array:
    """``a`` as a read-only CSR array, like a `_record_matrices` pair, whose
    rows list their columns in descending order and hold their first entry
    twice, as two equal halves."""
    rows = [np.flatnonzero(row)[::-1] for row in a]
    cols = [np.concatenate([r[:1], r]) for r in rows]
    data = [np.concatenate([a[i, r[:1]] / 2, a[i, r[:1]] / 2, a[i, r[1:]]])
            for i, r in enumerate(rows)]
    indptr = np.concatenate([[0], np.cumsum([len(c) for c in cols])])
    m = sparse.csr_array((np.concatenate(data), np.concatenate(cols), indptr), shape=a.shape)
    for part in (m.data, m.indices, m.indptr):
        part.flags.writeable = False
    return m


@pytest.mark.parametrize("form", [np.asarray, sparse.csr_array, sparse.csc_array,
                                  sparse.coo_array, duplicated_unsorted],
                         ids=["dense", "csr", "csc", "coo", "csr-duplicate-unsorted"])
def test_driver_matches_scipy_linprog_on_every_matrix_form(form):
    # HiGHS rejects a matrix with duplicate entries, which scipy sums; the
    # driver sums them too, on a copy, so a read-only matrix stays as it was
    a_ub = form(np.array([[1.0, 1.0, 0.0], [1.0, 3.0, 2.0]]))
    a_eq = form(np.array([[1.0, 0.0, 1.0]]))
    args = dict(c=np.array([-1.0, -2.0, 0.5]), A_ub=a_ub, b_ub=np.array([4.0, 6.0]),
                A_eq=a_eq, b_eq=np.array([1.0]),
                bounds=np.array([[0.0, np.inf], [0.0, np.inf], [0.0, 3.0]]))
    ours = extlp.linprog(**args)
    theirs = linprog(**args, method="highs", options={"presolve": False})
    assert ours.status == 0
    assert (ours.status, ours.nit, ours.message) == (theirs.status, theirs.nit, theirs.message)
    for a, b in ((ours.x, theirs.x), (ours.fun, theirs.fun),
                 (ours.ineqlin.marginals, theirs.ineqlin.marginals),
                 (ours.eqlin.marginals, theirs.eqlin.marginals)):
        assert float_bits(a) == float_bits(b)
    if form is duplicated_unsorted:
        assert a_ub.nnz == 7 and a_eq.nnz == 3 and not a_ub.has_canonical_format


def test_driver_rejects_non_finite_data():
    lp = one_variable_lp(1.0, [[1.0]], [1.0])
    args = dict(c=lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=lp.bounds)
    assert extlp.linprog(**args).status == 0
    for name, bad in (("c", [np.nan]), ("b_ub", [np.inf]), ("A_ub", [[-np.inf]]),
                      ("b_eq", [np.nan]), ("bounds", [[np.nan, 1.0]])):
        changed = {**args, name: np.array(bad)}
        if name == "b_eq":
            changed["A_eq"] = np.ones((1, 1))
        with pytest.raises(ValueError, match="finite"):
            extlp.linprog(**changed)
        if name != "bounds":  # scipy reads a NaN bound as no bound
            with pytest.raises(ValueError):
                linprog(**changed, method="highs")


def test_driver_rejects_mismatched_shapes():
    # HiGHS takes raw arrays with their lengths, so a short one must never
    # reach it
    lp = one_variable_lp(1.0, [[1.0]], [1.0])
    args = dict(c=lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=lp.bounds)
    for name, bad in (("c", np.ones(2)), ("A_ub", np.ones((1, 2))), ("b_ub", np.ones(2)),
                      ("A_eq", np.ones((1, 1))), ("bounds", np.zeros((0, 2))),
                      ("bounds", np.zeros((1, 3)))):
        changed = {**args, name: bad}
        with pytest.raises(ValueError, match="shapes"):
            extlp.linprog(**changed)
        with pytest.raises(ValueError):
            linprog(**changed, method="highs")
