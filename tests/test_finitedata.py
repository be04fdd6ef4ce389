"""Finite-data confidence certificates: estimators, radii, onset counts, IO."""

import io
import json
import os
import re
import subprocess
import sys
from itertools import chain, repeat
from math import ceil, log, sqrt

import numpy as np
import pytest

from nonshare import __version__, finitedata
from nonshare.cli import EXIT_INPUT, EXIT_OK, main
from nonshare.finitedata import (
    _ROW_CODES,
    ASSUMPTIONS,
    CorrelatorStats,
    EmptyCellError,
    TrialBatch,
    batch_csv_blocks,
    batch_from_csv,
    batch_to_csv,
    certificate_to_json,
    estimate_correlators,
    hoeffding_radius,
    lower_confidence_bound,
    read_trial_counts,
    sample_behavior_trials,
    samples_for_onset,
    simulate_trials,
    single_trial_lcb,
)
from nonshare.frontier import GAMMA_MAX, TSIRELSON, gamma_plus
from nonshare.behaviors import Behavior, LhvModel, lhv_behavior
from nonshare.qkernel import (
    QuantumStrategy,
    bell_strategy,
    born_behavior,
    pair_settings,
    tightness_state,
    werner_strategy,
)


def exact_count_batch(e_cells: dict[tuple[int, int], float], per_cell: int) -> TrialBatch:
    """Batch whose per-cell correlators hit the requested values exactly."""
    xs, ys, as_, bs = [], [], [], []
    for (t1, t2), e in e_cells.items():
        n_plus = round((1.0 + e) / 2.0 * per_cell)
        xs.extend([t1] * per_cell)
        ys.extend([t2] * per_cell)
        as_.extend([1] * per_cell)
        bs.extend([1] * n_plus + [-1] * (per_cell - n_plus))
    return TrialBatch(x=np.array(xs), y=np.array(ys), a=np.array(as_), b=np.array(bs))


def test_trial_batch_validation():
    ok = TrialBatch(
        x=np.array([0, 1]), y=np.array([1, 0]), a=np.array([1, -1]), b=np.array([-1, 1])
    )
    assert ok.x.size == 2
    assert not ok.x.flags.writeable
    with pytest.raises(ValueError):
        TrialBatch(x=np.array([0]), y=np.array([0, 1]), a=np.array([1]),
                   b=np.array([1]))
    with pytest.raises(ValueError):
        TrialBatch(x=np.array([2]), y=np.array([0]), a=np.array([1]),
                   b=np.array([1]))
    with pytest.raises(ValueError):
        TrialBatch(x=np.array([0]), y=np.array([0]), a=np.array([0]),
                   b=np.array([1]))
    with pytest.raises(ValueError):
        TrialBatch(x=np.array([], dtype=int), y=np.array([], dtype=int),
                   a=np.array([], dtype=int), b=np.array([], dtype=int))


def test_trial_batch_value_checks_are_exact():
    # every int64 edge: a column accepts exactly its two values
    edges = (-(2**63), -(2**63 - 1), -3, -2, -1, 0, 1, 2, 3, 2**63 - 1)
    valid = {"x": (0, 1), "y": (0, 1), "a": (-1, 1), "b": (-1, 1)}
    for column, accepted in valid.items():
        for value in edges:
            columns = {name: np.array([vals[1], vals[0]]) for name, vals in valid.items()}
            columns[column] = np.array([accepted[1], value], dtype=np.int64)
            if value in accepted:
                assert TrialBatch(**columns).x.size == 2
            else:
                message = "settings must be bits" if column in "xy" else "outcomes must be +-1"
                with pytest.raises(ValueError, match=re.escape(message)):
                    TrialBatch(**columns)


def test_trial_batch_refuses_values_that_are_not_integers():
    # a cast to int64 alone reads 0.7, 1.9 as bits, -1.5 as -1 and 2**64 - 1 as -1
    with pytest.raises(ValueError, match="settings must be bits"):
        TrialBatch(x=[0.7, 1.9], y=[0, 1], a=[1, -1.5], b=[1, 1])
    valid = {"x": [1.0, 0.0], "y": [0.0, 1.0], "a": [-1.0, 1.0], "b": [1.0, -1.0]}
    for column in valid:
        message = "settings must be bits" if column in "xy" else "outcomes must be +-1"
        for bad in (0.5, 1.0000000000000002, -1.5, -0.9999999999999999, 2.0**63, np.nan,
                    np.inf, 2**64 - 1, 2**64 - 2):
            columns = {name: np.array(values) for name, values in valid.items()}
            spellings = [[valid[column][0], bad], [int(valid[column][0]), bad]]
            if isinstance(bad, int):
                spellings.append(np.array([bad, bad], dtype=np.uint64))
            for spelled in spellings:
                columns[column] = spelled
                with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                                  match=re.escape(message)):
                    TrialBatch(**columns)
            if isinstance(bad, float) and abs(bad) < 2.0**63:
                columns[column] = np.array([valid[column][0], bad], dtype=object)
                with pytest.raises(ValueError, match=re.escape(message)):
                    TrialBatch(**columns)
    # integral floats and objects are read as the integers they are
    batch = TrialBatch(x=valid["x"], y=np.array([0, 1], dtype=object), a=valid["a"],
                       b=np.array(valid["b"], dtype=np.float32))
    for column, values in zip((batch.x, batch.y, batch.a, batch.b), valid.values()):
        assert column.dtype == np.int64
        assert column.tolist() == values


def test_simulate_trials_deterministic_and_tagged():
    batch1 = simulate_trials(bell_strategy(), 500, seed=9)
    batch2 = simulate_trials(bell_strategy(), 500, seed=9)
    assert np.array_equal(batch1.x, batch2.x)
    assert np.array_equal(batch1.a, batch2.a)
    other = simulate_trials(bell_strategy(), 500, seed=10)
    assert not np.array_equal(other.a, batch1.a)
    resp = np.zeros((1, 2, 2))
    resp[0, :, 0] = 1.0
    model = LhvModel(weights=np.array([1.0]), responses=(resp, resp))
    assert np.array_equal(simulate_trials(model, 10, seed=0).a, np.ones(10))
    a0, a1, o0, o1 = pair_settings()
    three_party = QuantumStrategy(
        state=tightness_state(0.4), observables=((a0, a1), (o0, o1), (o0, o1))
    )
    with pytest.raises(ValueError):
        simulate_trials(three_party, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_trials(bell_strategy(), 0, seed=0)
    with pytest.raises(ValueError):
        simulate_trials("bell", 10, seed=0)


def test_estimate_correlators_exact_counts():
    batch = exact_count_batch(
        {(0, 0): 0.7, (0, 1): 0.7, (1, 0): 0.7, (1, 1): -0.55}, per_cell=25000
    )
    stats = estimate_correlators(batch)
    assert stats.e_hat[0, 0] == 17500 / 25000
    assert stats.e_hat[1, 1] == -13750 / 25000
    assert stats.n_min == 25000
    assert int(stats.n.sum()) == batch.x.size
    assert stats.s_hat == pytest.approx(2.65, abs=1e-12)


def test_estimate_refuses_empty_cell():
    batch = TrialBatch(
        x=np.zeros(8, dtype=int), y=np.zeros(8, dtype=int),
        a=np.ones(8, dtype=int), b=np.ones(8, dtype=int),
    )
    with pytest.raises(EmptyCellError, match=r"\(0, 1\)"):
        estimate_correlators(batch)


def test_hoeffding_radius_frozen_value():
    assert hoeffding_radius(25000, 0.01) == pytest.approx(0.09250028654774506, abs=1e-15)
    assert hoeffding_radius(25000, 0.01) == pytest.approx(
        4.0 * sqrt(2.0 * log(800.0) / 25000.0), abs=0.0
    )
    # monotone in both arguments
    assert hoeffding_radius(50000, 0.01) < hoeffding_radius(25000, 0.01)
    assert hoeffding_radius(25000, 0.001) > hoeffding_radius(25000, 0.01)
    with pytest.raises(ValueError):
        hoeffding_radius(0, 0.01)
    with pytest.raises(ValueError):
        hoeffding_radius(100, 1.5)


def test_lower_confidence_bound_worked_example():
    stats = CorrelatorStats(
        e_hat=np.array([[0.7, 0.7], [0.7, -0.55]]),
        n=np.full((2, 2), 25000), n_min=25000, s_hat=2.65,
    )
    cert = lower_confidence_bound(stats, alpha=0.01)
    assert cert.estimator == "correlator_wise"
    assert cert.confidence == 0.99
    assert cert.radius == pytest.approx(0.09250028654774506, abs=1e-15)
    assert cert.s_lcb == pytest.approx(2.557499713452255, abs=1e-14)
    assert cert.s_cert == cert.s_lcb
    assert cert.gamma_lcb == pytest.approx(0.16869102301425876, abs=1e-14)
    assert cert.gamma_lcb == pytest.approx(gamma_plus(cert.s_cert), abs=0.0)


def test_certificate_clipping():
    low = CorrelatorStats(e_hat=np.zeros((2, 2)), n=np.full((2, 2), 100),
                          n_min=100, s_hat=-1.0)
    cert = lower_confidence_bound(low, alpha=0.05)
    assert cert.s_lcb < 0.0
    assert cert.s_cert == 0.0
    assert cert.gamma_lcb == 0.0
    high = CorrelatorStats(e_hat=np.ones((2, 2)), n=np.full((2, 2), 10 ** 9),
                           n_min=10 ** 9, s_hat=3.2)
    cert = lower_confidence_bound(high, alpha=0.05)
    assert cert.s_cert == TSIRELSON
    assert cert.gamma_lcb == pytest.approx(GAMMA_MAX, abs=1e-15)


def test_single_trial_radius_and_agreement():
    batch = simulate_trials(bell_strategy(), 100000, seed=2024)
    cert = single_trial_lcb(batch, alpha=0.01)
    assert cert.estimator == "single_trial"
    assert cert.radius == pytest.approx(0.03838820729750465, abs=1e-15)
    assert cert.radius == pytest.approx(4.0 * sqrt(2.0 * log(100.0) / 100000.0), abs=0.0)
    assert cert.s_hat == pytest.approx(TSIRELSON, abs=0.05)
    # identity: with equal per-cell counts the two estimators coincide
    equal = exact_count_batch(
        {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): -0.5}, per_cell=100
    )
    st = single_trial_lcb(equal, alpha=0.1)
    assert st.s_hat == pytest.approx(estimate_correlators(equal).s_hat, abs=1e-12)
    with pytest.raises(ValueError):
        single_trial_lcb(batch, alpha=0.0)


def test_single_trial_lcb_refuses_an_empty_table():
    # `read_trial_counts` never returns one, but a caller may pass any table
    with pytest.raises(ValueError, match="count table is empty"):
        single_trial_lcb(np.zeros((2, 2, 2), int), 0.05)


def test_single_trial_radius_smaller_than_correlator_wise():
    # one union bound versus eight; at equal totals the single-trial radius
    # 4 sqrt(2 ln(1/a) / N) beats 4 sqrt(2 ln(8/a) / (N/4))
    n_total = 100000
    assert 4.0 * sqrt(2.0 * log(100.0) / n_total) < hoeffding_radius(n_total // 4, 0.01)


def test_samples_for_onset_frozen_values():
    assert samples_for_onset(2.65, 0.01) == 507
    assert samples_for_onset(2.1, 0.01) == 21391
    assert samples_for_onset(2.1, 0.01) == ceil(32.0 * log(800.0) / 0.01)
    with pytest.raises(ValueError):
        samples_for_onset(2.0, 0.01)
    with pytest.raises(ValueError):
        samples_for_onset(2.5, 0.0)
    # no CHSH score exceeds 4: these once gave 0 trials, an OverflowError and
    # a failed integer conversion
    for impossible in (float("inf"), 1e300, float("nan"), 4.0 + 1e-9):
        with pytest.raises(ValueError, match="onset unreachable"):
            samples_for_onset(impossible, 0.01)
    assert samples_for_onset(4.0, 0.01) == ceil(32.0 * log(800.0) / 4.0)


def test_samples_for_onset_inverts_radius():
    for s_true, alpha in ((2.65, 0.01), (2.1, 0.01), (2.8, 0.05)):
        n = samples_for_onset(s_true, alpha)
        assert hoeffding_radius(n, alpha) <= s_true - 2.0 + 1e-12
        if n > 1:
            assert hoeffding_radius(n - 1, alpha) > s_true - 2.0


def test_csv_round_trip():
    batch = simulate_trials(bell_strategy(), 200, seed=5)
    text = batch_to_csv(batch)
    assert text.startswith("x,y,a,b\n")
    assert len(set(text.splitlines()[1:])) == 16  # every valid row occurs
    assert text == "x,y,a,b\n" + "".join(
        f"{x},{y},{a},{b}\n" for x, y, a, b in zip(batch.x, batch.y, batch.a, batch.b)
    )
    back = batch_from_csv(text)
    for field in ("x", "y", "a", "b"):
        assert np.array_equal(getattr(back, field), getattr(batch, field))
    with pytest.raises(ValueError, match="header"):
        batch_from_csv("a,b,c,d\n0,0,1,1\n")
    with pytest.raises(ValueError, match="malformed"):
        batch_from_csv("x,y,a,b\n0,0,1\n")
    with pytest.raises(ValueError, match="no rows"):
        batch_from_csv("x,y,a,b\n\n")
    with pytest.raises(ValueError, match="outcomes"):
        batch_from_csv("x,y,a,b\n0,0,1,99999999999999999999\n")
    with pytest.raises(ValueError, match="settings"):
        batch_from_csv("x,y,a,b\n-99999999999999999999,0,1,1\n")


# Trial counts around the writer's block of 65 536 rows.
BLOCK_SIZES = (1, 2000, 65535, 65536, 65537)


def test_csv_blocks_match_the_per_row_reference():
    rng = np.random.default_rng(11)
    for n in BLOCK_SIZES:
        codes = rng.permutation(np.arange(n) % 16)  # every row code once n >= 16
        x, y = codes >> 3, (codes >> 2) & 1
        a, b = 2 * ((codes >> 1) & 1) - 1, 2 * (codes & 1) - 1
        pieces = list(batch_csv_blocks(TrialBatch(x=x, y=y, a=a, b=b)))
        assert pieces[0] == "x,y,a,b\n"
        assert len(pieces) == 1 + ceil(n / 65536)
        assert all(piece.endswith("\n") for piece in pieces)
        assert "".join(pieces) == "x,y,a,b\n" + "".join(
            f"{xi},{yi},{ai},{bi}\n"
            for xi, yi, ai, bi in zip(x.tolist(), y.tolist(), a.tolist(), b.tolist())
        )


# Chunk sizes small enough that block boundaries fall inside every case.
SMALL_CHUNKS = (1, 2, 3, 5, 8)


def certify_file(tmp_path, data, estimator):
    path = tmp_path / "trials.csv"
    path.write_bytes(data)
    return main(["certify", "--trials", str(path), "--estimator", estimator]), path


@pytest.mark.parametrize(
    "text, columns",
    [
        (" x , y , a , b \n0,0,1,1\n1,1,-1,-1\n", [[0, 1], [0, 1], [1, -1], [1, -1]]),
        ("x,y,a,b\r\n0,1,1,-1\r\n1,0,-1,1\r\n", [[0, 1], [1, 0], [1, -1], [-1, 1]]),
        ("\n\nx,y,a,b\n\n0,0,1,1\n\n\n1,1,1,-1\n\n", [[0, 1], [0, 1], [1, 1], [1, -1]]),
        ("x,y,a,b\n0,0,1,1\n1, 1,-1, +1\n0,1,-1,-1\n",
         [[0, 1, 0], [0, 1, 1], [1, -1, -1], [1, 1, -1]]),
        ("x,y,a,b\n01,0,1,-01\n", [[1], [0], [1], [-1]]),
        ("x,y,a,b\n1,1,-1,-1", [[1], [1], [-1], [-1]]),
        # expectations below as the whole-text parser gave them
        ("\t\nx,y,a,b\n0,0,1,1\n", [[0], [0], [1], [1]]),
        ("\t x,y,a,b\n1,1,1,1\n", [[1], [1], [1], [1]]),
        ("\n \n\nx,y,a,b\n1,0,1,-1\n", [[1], [0], [1], [-1]]),
        ("x,y,a,b\n0,0,1,1\n  \n\t\n \n", [[0], [0], [1], [1]]),
        ("x,y,a,b\n0,1,1,1\x0c1,1,-1,1\n", [[0, 1], [1, 1], [1, -1], [1, 1]]),
    ],
)
def test_csv_parser_accepts_odd_spellings(text, columns, monkeypatch, tmp_path, capsys):
    expected = TrialBatch(*(np.array(col, dtype=np.int64) for col in columns))
    counts = np.bincount(4 * expected.x + 2 * expected.y + (expected.a == expected.b),
                         minlength=8).reshape(2, 2, 2)
    cert = certificate_to_json(single_trial_lcb(expected, 0.01))
    for chunk in (finitedata.CHUNK_SIZE, *SMALL_CHUNKS):
        monkeypatch.setattr(finitedata, "CHUNK_SIZE", chunk)
        batch = batch_from_csv(text)
        for field in "xyab":
            assert np.array_equal(getattr(batch, field), getattr(expected, field))
        code, path = certify_file(tmp_path, text.encode(), "single_trial")
        assert code == EXIT_OK
        assert capsys.readouterr().out == cert
        assert np.array_equal(read_trial_counts(str(path)), counts)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,y,a,b\n0,0,1,1\n0,0,1\n", "malformed trial row: '0,0,1'"),
        ("x,y,a,b\n0,0,1,1,1\n", "malformed trial row: '0,0,1,1,1'"),
        ("x,y,a,b\na,0,1,1\n", "invalid literal for int() with base 10: 'a'"),
        ("x,y,a,b\n0,0,1,1\n2,0,1,1\n", "settings must be bits"),
        ("x,y,a,b\n0,0,0,1\n", "outcomes must be +-1"),
        ("x,y,a,b\n1_1,0,1,1\n", "settings must be bits"),
        # every row is parsed before any value is checked
        ("x,y,a,b\n2,0,1,1\n0,0,a,1\n", "invalid literal for int() with base 10: 'a'"),
        ("x,y,a,b\n0,0,0,1\n0,2,1,1\n", "settings must be bits"),
        # expectations below as the whole-text parser gave them: only the
        # file's last line loses its trailing whitespace
        ("x,y,a,b\n0,0,1,1\n0,0,1,\t", "invalid literal for int() with base 10: ''"),
        ("x,y,a,b\n0,0,1,1\n  \n0,1,1,1\n", "malformed trial row: '  '"),
        # a file that is not UTF-8 fails on its first bad byte, before any row
        (b"x,y,a,b\n0,0,1,1\n0,1,1,1\n1,0,\xff1,1\n",
         "'utf-8' codec can't decode byte 0xff in position 28: invalid start byte"),
        (b"x,y,a,b\n0,0,1\n0,1,1,1\n\xe2\x82\n",
         "'utf-8' codec can't decode bytes in position 22-23: invalid continuation byte"),
    ],
)
def test_csv_parser_rejects_bad_rows(text, message, monkeypatch, tmp_path, capsys):
    for chunk in (finitedata.CHUNK_SIZE, *SMALL_CHUNKS):
        monkeypatch.setattr(finitedata, "CHUNK_SIZE", chunk)
        if isinstance(text, str):
            with pytest.raises(ValueError) as excinfo:
                batch_from_csv(text)
            assert str(excinfo.value) == message
        data = text.encode() if isinstance(text, str) else text
        for estimator in ("correlator_wise", "single_trial"):
            assert certify_file(tmp_path, data, estimator)[0] == EXIT_INPUT
            assert capsys.readouterr() == ("", f"input error: {message}\n")


def whole_text_trials(data: bytes) -> TrialBatch:
    """Reference parser: the whole file decoded, split and checked at once."""
    lines = [ln for ln in data.decode("utf-8").strip().splitlines() if ln]
    if not lines or lines[0].replace(" ", "") != "x,y,a,b":
        raise ValueError("trial file must start with header x,y,a,b")
    if len(lines) == 1:
        raise ValueError("trial file has a header but no rows")
    values = []
    for row in lines[1:]:
        parts = row.split(",")
        if len(parts) != 4:
            # a row over 80 characters is quoted by its start and its length
            more = f"... ({len(row)} characters)" if len(row) > 80 else ""
            raise ValueError(f"malformed trial row: {row[:80]!r}{more}")
        values.append([int(p) for p in parts])
    x, y, a, b = zip(*values)
    if not set(x + y) <= {0, 1}:
        raise ValueError("settings must be bits")
    if not set(a + b) <= {-1, 1}:
        raise ValueError("outcomes must be +-1")
    return TrialBatch(*(np.array(col, dtype=np.int64) for col in (x, y, a, b)))


def generated_trial_file(rng) -> bytes:
    """A short trial file mixing valid rows with odd spellings, breaks and faults."""
    headers = ("x,y,a,b", " x , y , a , b ", "\tx,y,a,b", "x,y,a,b\t", "x;y;a;b", "")
    odd = ("0, 1,+1,-1", "01,0,1,-01", " 1,1,-1,-1\t", "0,0,1,1 ", "2,0,1,1", "0,0,0,1",
           "1_1,0,1,1", "0,0,1", "0,0,1,1,1", "a,0,1,1", "0,0,1,\t", "é,0,1,1",
           "0,0,1,99999999999999999999", "-99999999999999999999,0,1,1", "", " ", "\t", "é")
    valid = [f"{x},{y},{a},{b}" for x in (0, 1) for y in (0, 1) for a in (-1, 1) for b in (-1, 1)]
    breaks = ("\r", "\r\n", "\x0c", "\x85", "\u2028", "\n \n", " ")
    parts = [rng.choice(["", "\n", " \n\t"])]
    parts.append(headers[0] if rng.random() < 0.75 else rng.choice(headers))
    for _ in range(rng.integers(0, 12)):
        parts.append("\n" if rng.random() < 0.7 else rng.choice(breaks))
        parts.append(rng.choice(valid) if rng.random() < 0.94 else rng.choice(odd))
    parts.append(rng.choice(["", "\n", "\r\n", "\n\n", " \t\n", "\n  "]))
    data = "".join(map(str, parts)).encode()
    if rng.random() < 0.1:
        at = rng.integers(len(data) + 1)
        data = data[:at] + rng.choice([b"\xff", b"\xe2\x82", b"\xc3"]) + data[at:]
    return data


def test_chunked_parser_matches_the_whole_text_parser(monkeypatch, tmp_path):
    path = tmp_path / "trials.csv"

    def check(data, chunks):
        path.write_bytes(data)
        try:
            expected = whole_text_trials(data)
        except ValueError as exc:
            counts = batch = (type(exc), str(exc))
        else:
            counts = np.bincount(4 * expected.x + 2 * expected.y + (expected.a == expected.b),
                                 minlength=8).reshape(2, 2, 2).tolist()
            batch = [getattr(expected, field).tolist() for field in "xyab"]
        for chunk in chunks:
            monkeypatch.setattr(finitedata, "CHUNK_SIZE", chunk)
            try:
                got = read_trial_counts(str(path)).tolist()
            except ValueError as exc:
                got = (type(exc), str(exc))
            assert got == counts, data
        if isinstance(batch, tuple) and batch[0] is UnicodeDecodeError:
            return
        try:
            parsed = batch_from_csv(data.decode("utf-8"))
            got = [getattr(parsed, field).tolist() for field in "xyab"]
        except ValueError as exc:
            got = (type(exc), str(exc))
        assert got == batch, data

    rng = np.random.default_rng(2024)
    for _ in range(300):
        check(generated_trial_file(rng), (1, 2, 3, 5, 8, 13, 1 << 16))
    # one line across hundreds of blocks, and the bytes around it
    for data in (
        b"x,y,a,b" + b" " * 3000,
        b"x,y,a,b\n0,0,1," + b"1" * 3000 + b"\n1,1,1,1\n",
        b"x,y,a,b\n0,0,1,1," + b"1" * 3000 + b"\n1,1,1,1\n",
        b" " * 3000 + b"x,y,a,b\r0,1,1,1",
        b"x,y,a,b\n0,1,1,1\n" + b"\t" * 3000 + b"\xe2\x82\n",
    ):
        check(data, (7, 64))


def per_line_trial_codes(pieces):
    """Reference: `_trial_codes` with every piece split into lines, no bulk path."""
    header = error = None
    held = []
    n_rows = 0
    bad_settings = bad_outcomes = False
    for piece in chain(pieces, [None]):
        if piece is None:
            lines = [held[0].rstrip()] if held else []
        else:
            lines = held + piece.splitlines()
            last = len(lines) - 1
            while last > 0 and (not lines[last] or lines[last].isspace()):
                last -= 1
            held = list(filter(None, lines[last:]))[:2]
            del lines[last:]
        rows = list(filter(None, lines))
        if header is None:
            first = next((i for i, ln in enumerate(rows) if not ln.isspace()), len(rows))
            if first == len(rows):
                continue
            header = rows[first].lstrip().replace(" ", "")
            del rows[: first + 1]
        codes = np.fromiter(map(_ROW_CODES.get, rows, repeat(-1)), np.int64, len(rows))
        n_rows += len(rows)
        for i in np.flatnonzero(codes < 0).tolist():
            row = rows[i]
            try:
                if row.count(",") != 3:
                    more = f"... ({len(row)} characters)" if len(row) > 80 else ""
                    raise ValueError(f"malformed trial row: {row[:80]!r}{more}")
                x, y, a, b = map(int, row.split(","))
            except ValueError as exc:
                error = error or str(exc)
                continue
            if x not in (0, 1) or y not in (0, 1):
                bad_settings = True
            elif a not in (-1, 1) or b not in (-1, 1):
                bad_outcomes = True
            else:
                codes[i] = _ROW_CODES[f"{x},{y},{a},{b}"]
        yield codes[codes >= 0]
    if header != "x,y,a,b":
        raise ValueError("trial file must start with header x,y,a,b")
    if not n_rows:
        raise ValueError("trial file has a header but no rows")
    if error:
        raise ValueError(error)
    if bad_settings:
        raise ValueError("settings must be bits")
    if bad_outcomes:
        raise ValueError("outcomes must be +-1")


def test_bulk_counting_matches_the_per_line_path(monkeypatch):
    # long canonical runs with one fault put at each line start within 10
    # bytes of the first two block boundaries: the rows and the error must
    # be those of the per-line path
    faults = {
        "odd spelling": "0, 1,+1,-1\n", "malformed in the alphabet": "0,0,--1,1\n",
        "cut row": "0,0,1,-\n", "not a bit": "2,0,1,1\n", "non-ASCII": "é,0,1,1\n",
        "blank line": "\n", "whitespace-only line": " \t\n", "CRLF": "\r",
    }
    rng = np.random.default_rng(21)
    bulk_pieces = 0
    real_canonical_piece = finitedata._canonical_piece

    def counted(held, piece):
        nonlocal bulk_pieces
        codes = real_canonical_piece(held, piece)
        bulk_pieces += codes is not None
        return codes

    monkeypatch.setattr(finitedata, "_canonical_piece", counted)

    def outcome(codes_of, data):
        pieces = list(finitedata._utf8_pieces(io.BytesIO(data)))
        try:
            return np.concatenate([np.zeros(0, np.int64), *codes_of(pieces)]).tolist()
        except ValueError as exc:
            return str(exc)

    for chunk in (7, 64, 1000, 1 << 16):
        monkeypatch.setattr(finitedata, "CHUNK_SIZE", chunk)
        codes = rng.integers(16, size=3 * chunk // 8 + 8)
        rows = [finitedata._ROWS[code] + "\n" for code in codes]
        body = "x,y,a,b\n" + "".join(rows)
        starts = np.cumsum([0, len("x,y,a,b\n"), *map(len, rows)])
        bulk_pieces = 0
        assert outcome(finitedata._trial_codes, body.encode()) == outcome(
            per_line_trial_codes, body.encode())
        assert bulk_pieces
        at = starts[(abs(starts - chunk) <= 10) | (abs(starts - 2 * chunk) <= 10)]
        for start in at[at > len("x,y,a,b\n")].tolist():
            for name, fault in faults.items():
                # a CR goes before the line feed that ends the previous line
                cut = start - 1 if fault == "\r" else start
                data = (body[:cut] + fault + body[cut:]).encode()
                assert outcome(finitedata._trial_codes, data) == outcome(
                    per_line_trial_codes, data), (chunk, start, name)


def test_bulk_recognizer_codes_every_short_line_over_its_alphabet():
    # every string of 1 to 10 characters over "01,-", 1 398 100 lines in one
    # file, shuffled so that lines of every length meet: a line gets the code
    # `_ROW_CODES.get` gives it, and -1, which sends its piece to the per-line
    # path, where that gives nothing
    alphabet = np.frombuffer(b"01,-", np.uint8)
    blocks, expected = [], []
    for length in range(1, 11):
        index = np.arange(4**length)
        lines = np.zeros((index.size, 11), np.uint8)  # zero pads each line to 11 bytes
        for column in range(length):
            lines[:, column] = alphabet[(index >> 2 * (length - 1 - column)) & 3]
        lines[:, length] = ord("\n")
        codes = np.full(index.size, -1)
        for row, code in _ROW_CODES.items():
            if len(row) == length:
                spelled = np.frombuffer(row.encode(), np.uint8)
                codes[(lines[:, :length] == spelled).all(axis=1)] = code
        blocks.append(lines)
        expected.append(codes)
    order = np.random.default_rng(6).permutation(sum(map(len, expected)))
    lines = np.concatenate(blocks)[order]
    del blocks
    data = lines[lines != 0].tobytes()
    del lines
    expected = np.concatenate(expected)[order]
    assert expected.size == 1_398_100 and np.bincount(expected + 1).tolist() == [
        expected.size - 16, *[1] * 16]
    assert np.array_equal(finitedata._canonical_codes(data), expected)


def test_estimators_match_the_per_cell_reference():
    # reference: per-cell masks and the mean of Z = 4 (-1)^(x y) a b; all sums
    # are exact integers, so the count table must give the same floats
    rng = np.random.default_rng(11)
    for n in (1, 7, 1000, 54321):
        cells = rng.choice(16, size=n, p=rng.dirichlet(np.ones(16)))
        batch = TrialBatch(
            x=cells >> 3, y=(cells >> 2) & 1, a=2 * ((cells >> 1) & 1) - 1,
            b=2 * (cells & 1) - 1,
        )
        z = 4.0 * ((-1.0) ** (batch.x * batch.y)) * batch.a * batch.b
        assert single_trial_lcb(batch, 0.05).s_hat == float(z.mean())
        masks = [[(batch.x == t1) & (batch.y == t2) for t2 in (0, 1)] for t1 in (0, 1)]
        empty = [(t1, t2) for t1 in (0, 1) for t2 in (0, 1) if not masks[t1][t2].any()]
        if empty:
            with pytest.raises(EmptyCellError, match=re.escape(f"settings {empty[0]}")):
                estimate_correlators(batch)
            continue
        prod = batch.a * batch.b
        e_hat = np.array([[prod[m].mean() for m in row] for row in masks])
        stats = estimate_correlators(batch)
        assert np.array_equal(stats.e_hat, e_hat)
        assert np.array_equal(stats.n, [[m.sum() for m in row] for row in masks])
        assert stats.s_hat == e_hat[0, 0] + e_hat[0, 1] + e_hat[1, 0] - e_hat[1, 1]


def test_certificate_json_fields():
    stats = CorrelatorStats(e_hat=np.full((2, 2), 0.5), n=np.full((2, 2), 1000),
                            n_min=1000, s_hat=1.0)
    payload = json.loads(certificate_to_json(lower_confidence_bound(stats, 0.05)))
    for key in ("s_hat", "radius", "s_lcb", "s_cert", "gamma_lcb",
                "confidence", "estimator", "assumptions", "tool_version"):
        assert key in payload
    assert payload["assumptions"] == ASSUMPTIONS
    assert payload["tool_version"] == __version__


def test_coverage_quick_check():
    # conservative bound: empirical coverage of s_lcb <= s_true far above 1 - alpha
    eta = 0.8
    s_true = TSIRELSON * eta
    strategy = werner_strategy(eta)
    alpha = 0.05
    hits = 0
    n_batches = 250
    for k in range(n_batches):
        batch = simulate_trials(strategy, 2000, seed=10_000 + k)
        cert = lower_confidence_bound(estimate_correlators(batch), alpha)
        hits += cert.s_lcb <= s_true
    assert hits / n_batches >= 1.0 - alpha


def test_sample_behavior_trials_matches_cell_distribution():
    from nonshare.behaviors import pr_box

    batch = sample_behavior_trials(pr_box(), 40000, seed=77)
    stats = estimate_correlators(batch)
    # PR box: E = +1 on three cells, -1 on the (1,1) cell
    assert stats.e_hat[0, 0] == 1.0
    assert stats.e_hat[1, 1] == -1.0
    assert stats.s_hat == pytest.approx(4.0, abs=0.0)


def test_sample_behavior_trials_rejects_what_it_cannot_sample():
    cases = (
        (Behavior(2, (2, 2), (3, 3), np.full((2, 2, 3, 3), 1 / 9)), "2 inputs and 2 outputs"),
        (Behavior(2, (3, 2), (2, 2), np.full((3, 2, 2, 2), 1 / 4)), "2 inputs and 2 outputs"),
        (Behavior(3, (2, 2, 2), (2, 2, 2), np.full((2,) * 6, 1 / 8)), "a 2-party strategy"),
    )
    for behavior, message in cases:
        with pytest.raises(ValueError, match=f"trial simulation expects {message}"):
            sample_behavior_trials(behavior, 10, seed=0)


def per_cell_reference_sample(behavior: Behavior, n: int, seed: int):
    """x, y, a, b drawn cell by cell: a mask per setting pair, then
    `searchsorted` of the trial's uniform in the cell's cumulative sums."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    y = rng.integers(0, 2, size=n)
    joint = rng.random(n)
    a = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    for t1 in (0, 1):
        for t2 in (0, 1):
            mask = (x == t1) & (y == t2)
            cdf = np.cumsum(behavior.table[t1, t2].reshape(-1))
            idx = np.searchsorted(cdf, joint[mask], side="right").clip(max=3)
            a[mask] = 1 - 2 * (idx >> 1)  # label 0 -> +1
            b[mask] = 1 - 2 * (idx & 1)
    return x, y, a, b


# weights 1/4, 3/4; its cell (x, y) = (0, 1) is (1/4, 0, 0, 3/4)
DYADIC_LHV = LhvModel(
    weights=np.array([0.25, 0.75]),
    responses=(np.array([[[1, 0], [0.5, 0.5]], [[0, 1], [0.25, 0.75]]]),
               np.array([[[0.5, 0.5], [1, 0]], [[0.75, 0.25], [0, 1]]])),
)


def test_sample_behavior_trials_matches_the_per_cell_reference():
    # the sampler compares u with the partial sums instead of searching them; the
    # two agree because Behavior clears negative dust, so no cell's partial
    # sums decrease. Zero cells give tied partial sums.
    rng = np.random.default_rng(3)
    tables = [np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 0.5, 0, 0.5], [0.25, 0, 0, 0.75]])]
    for _ in range(12):
        rows = rng.dirichlet(np.ones(4), size=4) * (rng.random((4, 4)) < 0.6)
        rows[rows.sum(axis=1) == 0, rng.integers(4)] = 1.0
        tables.append(rows / rows.sum(axis=1, keepdims=True))
    behaviors = [Behavior(2, (2, 2), (2, 2), t.reshape(2, 2, 2, 2)) for t in tables]
    behaviors += [lhv_behavior(DYADIC_LHV), born_behavior(bell_strategy()),
                  born_behavior(werner_strategy(0.9))]
    for behavior in behaviors:
        for n in (1, 7, 2000, 100000):
            for seed in (0, 1, 2**40 + 17):
                batch = sample_behavior_trials(behavior, n, seed)
                expected = per_cell_reference_sample(behavior, n, seed)
                for column, reference in zip((batch.x, batch.y, batch.a, batch.b), expected):
                    assert np.array_equal(column, reference)


def three_pass_reference_sample(behavior: Behavior, n: int, seed: int):
    """x, y, a, b drawn as a uint8 count of the cell's first three partial
    sums <= u, then read off its two bits: 2 [a = -1] + [b = -1]."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    y = rng.integers(0, 2, size=n)
    joint = rng.random(n)
    cdf = np.cumsum(behavior.table.reshape(4, 4), axis=1)
    cell = 2 * x + y
    idx = np.zeros(n, dtype=np.uint8)
    for k in range(3):
        idx += cdf[:, k].take(cell) <= joint
    return x, y, np.where(idx >> 1, -1, 1), np.where(idx & 1, -1, 1)


def deterministic_response(bits: int) -> np.ndarray:
    """One party's single-rule response table: output bit (bits >> t) & 1 on input t."""
    resp = np.zeros((1, 2, 2))
    for t in (0, 1):
        resp[0, t, (bits >> t) & 1] = 1.0
    return resp


def test_sample_behavior_trials_matches_the_three_pass_reference():
    # the sampler reads a and b off the prefix of partial sums <= u; every
    # deterministic behavior and the mixtures below have cells with zeros,
    # so tied partial sums
    behaviors = [born_behavior(bell_strategy())]
    behaviors += [born_behavior(werner_strategy(eta)) for eta in (0.0, 0.5, 0.9, 1.0)]
    rules = [deterministic_response(bits) for bits in range(4)]
    behaviors += [lhv_behavior(LhvModel(weights=np.array([1.0]), responses=(r1, r2)))
                  for r1 in rules for r2 in rules]
    behaviors += [lhv_behavior(DYADIC_LHV)]
    behaviors += [
        lhv_behavior(LhvModel(weights=np.array(weights),
                              responses=(np.concatenate([rules[i] for i in firsts]),
                                         np.concatenate([rules[j] for j in seconds]))))
        for weights, firsts, seconds in (([0.3, 0.7], (0, 3), (1, 1)),
                                         ([0.5, 0.25, 0.25], (1, 2, 2), (0, 3, 2)))
    ]
    for k, behavior in enumerate(behaviors):
        for n in BLOCK_SIZES:
            batch = sample_behavior_trials(behavior, n, seed=1000 * k + n)
            expected = three_pass_reference_sample(behavior, n, seed=1000 * k + n)
            for column, reference in zip((batch.x, batch.y, batch.a, batch.b), expected):
                assert np.array_equal(column, reference)


def test_finitedata_imports_no_scipy():
    # simulate and certify need numpy only; scipy's import is most of a
    # CLI process's start-up
    code = ("import sys, nonshare.finitedata\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(finitedata.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
