"""Behavior tables, marginals, hidden-variable models, and scoring kernels."""

from math import sqrt

import numpy as np
import pytest

from nonshare.behaviors import (
    Behavior,
    GameKernel,
    LhvModel,
    check_no_signalling,
    chsh_kernel,
    copied_seed_extension,
    deterministic_behaviors,
    game_score,
    lhv_behavior,
    lhv_model_from_json,
    lhv_model_to_json,
    marginal,
    pr_box,
    relabel_13_to_12,
)
from nonshare.extlp import NO_SIGNALLING, verification_record, verification_records
from nonshare.finitedata import sample_behavior_trials
from nonshare.qkernel import TSIRELSON, bell_strategy, born_behavior


def uniform_pair() -> Behavior:
    return Behavior(2, (2, 2), (2, 2), np.full((2, 2, 2, 2), 0.25))


def coin_model(bias: float = 0.5) -> LhvModel:
    """Two seeds; each player outputs the seed regardless of the input."""
    resp = np.zeros((2, 2, 2))
    resp[0, :, 0] = 1.0
    resp[1, :, 1] = 1.0
    return LhvModel(weights=np.array([bias, 1.0 - bias]), responses=(resp, resp))


def test_behavior_validation():
    with pytest.raises(ValueError):
        Behavior(2, (2, 2), (2, 2), np.zeros((2, 2, 2, 2)))  # rows sum to 0
    bad = np.full((2, 2, 2, 2), 0.25)
    bad[0, 0, 0, 0] = -0.1
    bad[0, 0, 1, 1] = 0.6
    with pytest.raises(ValueError):
        Behavior(2, (2, 2), (2, 2), bad)  # negative entry
    with pytest.raises(ValueError):
        Behavior(2, (2, 2), (2, 2), np.full((2, 2, 2), 0.25))  # wrong shape
    # NaN fails both the sign and the row-sum comparison
    for cell in ((0, 0, 0, 0), (1, 1, 1, 1)):
        nan_table = np.full((2, 2, 2, 2), 0.25)
        nan_table[cell] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Behavior(2, (2, 2), (2, 2), nan_table)
    for sizes in ((2.0, 2.0), (2, 2.5), (0, 2), ("2", 2)):
        with pytest.raises(ValueError, match="positive integers"):
            Behavior(2, sizes, (2, 2), np.full((2, 2, 2, 2), 0.25))
        with pytest.raises(ValueError, match="positive integers"):
            Behavior(2, (2, 2), sizes, np.full((2, 2, 2, 2), 0.25))
    p = uniform_pair()
    assert not p.table.flags.writeable
    assert p.n_inputs == 4


def test_alphabets_are_stored_as_tuples_of_int():
    as_tuples = pr_box()
    for inputs, outputs in (([2, 2], [2, 2]), (np.array([2, 2]), (np.int64(2), 2))):
        p = Behavior(2, inputs, outputs, as_tuples.table)
        assert p.inputs_per_party == p.outputs_per_party == (2, 2)
        assert all(type(v) is int for v in p.inputs_per_party + p.outputs_per_party)
        record = verification_record(as_tuples, NO_SIGNALLING)
        assert verification_record(p, NO_SIGNALLING) == record
        assert verification_records([p, as_tuples], NO_SIGNALLING) == [record, record]
        ours, theirs = sample_behavior_trials(p, 50, 3), sample_behavior_trials(as_tuples, 50, 3)
        for name in ("x", "y", "a", "b"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name))


def test_marginal_averages_and_flags_signalling():
    p = pr_box()
    m1 = marginal(p, (1,))
    assert m1.table == pytest.approx(np.full((2, 2), 0.5))
    # a signalling table: party 1's outcome copies party 2's input
    bad = np.zeros((2, 2, 2, 2))
    for t1, t2 in np.ndindex(2, 2):
        bad[t1, t2, t2, 0] = 1.0
    with pytest.raises(ValueError, match="signalling input detected"):
        marginal(Behavior(2, (2, 2), (2, 2), bad), (1,))
    with pytest.raises(ValueError):
        marginal(p, (1, 3))  # out of range
    with pytest.raises(ValueError):
        marginal(p, ())


def test_marginal_of_three_party_box():
    p = born_behavior(bell_strategy())
    model = coin_model()
    ext = copied_seed_extension(model, model.responses[1])
    m12 = marginal(ext, (1, 2))
    assert np.max(np.abs(m12.table - lhv_behavior(model).table)) == 0.0
    m13 = marginal(ext, (1, 3))
    assert m13.inputs_per_party == (2, 2)
    assert np.max(np.abs(m13.table - m12.table)) == 0.0  # copied rule, same joint law
    assert p.n_parties == 2


def test_check_no_signalling_report():
    assert check_no_signalling(pr_box()).passed
    bad = np.zeros((2, 2, 2, 2))
    for t1, t2 in np.ndindex(2, 2):
        bad[t1, t2, t2, 0] = 1.0
    report = check_no_signalling(Behavior(2, (2, 2), (2, 2), bad))
    assert not report.passed
    assert report.max_residual == pytest.approx(1.0)


def test_relabel_keeps_table_and_checks_alphabets():
    p13 = pr_box()
    out = relabel_13_to_12(p13, reference=uniform_pair())
    assert np.array_equal(out.table, p13.table)
    skewed = Behavior(2, (2, 3), (2, 2), np.full((2, 3, 2, 2), 0.25))
    with pytest.raises(ValueError, match="alphabets"):
        relabel_13_to_12(p13, reference=skewed)


def test_game_score_is_half_plus_s_over_8():
    kernel = chsh_kernel()
    p = born_behavior(bell_strategy())
    assert game_score(p, kernel) == pytest.approx(0.5 + TSIRELSON / 8.0, abs=1e-12)
    assert game_score(pr_box(), kernel) == pytest.approx(1.0)
    assert game_score(uniform_pair(), kernel) == pytest.approx(0.5)


def test_game_kernel_validation():
    with pytest.raises(ValueError):
        GameKernel(values=np.full((2, 2, 2, 2), 1.5))
    nan_values = np.full((2, 2, 2, 2), 0.5)
    nan_values[1, 0, 0, 1] = np.nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GameKernel(values=nan_values)
    with pytest.raises(ValueError):
        game_score(uniform_pair(), GameKernel(values=np.full((2, 2, 2), 0.5)))


def test_lhv_behavior_matches_direct_enumeration():
    rng = np.random.default_rng(7)
    weights = rng.dirichlet(np.ones(3))
    responses = tuple(rng.dirichlet(np.ones(2), size=(3, 2)) for _ in range(2))
    model = LhvModel(weights=weights, responses=responses)
    p = lhv_behavior(model)
    for t1, t2, x1, x2 in np.ndindex(2, 2, 2, 2):
        direct = sum(
            weights[lam] * responses[0][lam, t1, x1] * responses[1][lam, t2, x2]
            for lam in range(3)
        )
        assert p.table[t1, t2, x1, x2] == pytest.approx(direct, abs=1e-15)
    assert check_no_signalling(p).passed


def test_lhv_model_validation():
    with pytest.raises(ValueError):
        LhvModel(weights=np.array([0.5, 0.6]), responses=(np.zeros((2, 2, 2)),))
    resp = np.zeros((2, 2, 2))
    resp[:, :, 0] = 1.0
    with pytest.raises(ValueError):
        LhvModel(weights=np.array([1.0]), responses=(resp,))  # n_lambda mismatch
    # NaN fails every comparison, so it must be rejected on its own
    with pytest.raises(ValueError, match="weights"):
        LhvModel(weights=np.array([0.5, np.nan]), responses=(resp, resp))
    nan_rule = resp.copy()
    nan_rule[1, 0] = [np.nan, 0.0]
    with pytest.raises(ValueError, match="response row"):
        LhvModel(weights=np.array([0.5, 0.5]), responses=(resp, nan_rule))


def test_best_local_chsh_strategy_scores_three_quarters():
    # both players answer 0 always: wins 3 of 4 input pairs
    resp = np.zeros((1, 2, 2))
    resp[0, :, 0] = 1.0
    model = LhvModel(weights=np.array([1.0]), responses=(resp, resp))
    assert game_score(lhv_behavior(model), chsh_kernel()) == pytest.approx(0.75)


def test_copied_seed_extension_is_exact():
    rng = np.random.default_rng(41)
    counts = rng.multinomial(256, rng.dirichlet(np.ones(4)))
    weights = counts / 256.0
    responses = []
    for _ in range(2):
        k = rng.integers(0, 257, size=(4, 2))
        resp = np.stack([k / 256.0, 1.0 - k / 256.0], axis=-1)
        responses.append(resp)
    model = LhvModel(weights=weights, responses=tuple(responses))
    ext = copied_seed_extension(model, responses[1])
    p12 = lhv_behavior(model)
    # dyadic weights and responses make the marginal bitwise exact
    assert np.array_equal(marginal(ext, (1, 2)).table, p12.table)
    p13 = relabel_13_to_12(marginal(ext, (1, 3)), reference=p12)
    s12 = game_score(p12, chsh_kernel())
    s13 = game_score(p13, chsh_kernel())
    assert s13 == pytest.approx(s12, abs=1e-15)
    with pytest.raises(ValueError):
        copied_seed_extension(model, np.zeros((3, 2, 2)))  # n_lambda mismatch


def test_deterministic_behaviors_count_and_indexing():
    pair = deterministic_behaviors((2, 2), (2, 2))
    triple = deterministic_behaviors((2, 2, 2), (2, 2, 2))
    assert len(pair) == 16
    assert len(triple) == 64
    # v = 16 f1 + 4 f2 + f3 with f = 2 x(0) + x(1)
    f1, f2, f3 = 3, 1, 2
    table = triple[16 * f1 + 4 * f2 + f3]
    outputs = {1: (1, 1), 2: (0, 1), 3: (1, 0)}
    for t in np.ndindex(2, 2, 2):
        x = tuple(outputs[p][t[p - 1]] for p in (1, 2, 3))
        assert table[t + x] == 1.0
    for table in pair:
        Behavior(2, (2, 2), (2, 2), table)  # all are valid behaviors


def test_pr_box_family():
    for a, b, c in np.ndindex(2, 2, 2):
        box = pr_box(a, b, c)
        assert check_no_signalling(box).passed
    assert game_score(pr_box(0, 0, 1), chsh_kernel()) == pytest.approx(0.0)


def test_lhv_model_json_round_trip():
    model = coin_model(0.25)
    back = lhv_model_from_json(lhv_model_to_json(model))
    assert np.array_equal(back.weights, model.weights)
    for a, b in zip(back.responses, model.responses):
        assert np.array_equal(a, b)
    assert np.array_equal(lhv_behavior(back).table, lhv_behavior(model).table)


def test_quantum_behavior_beats_local_bound():
    p = born_behavior(bell_strategy())
    score = game_score(p, chsh_kernel())
    assert score > 0.75 + 0.1
    assert abs(score - (0.5 + sqrt(2.0) / 4.0)) < 1e-12
