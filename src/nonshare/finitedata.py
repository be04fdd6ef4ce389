"""Finite-data certification from Bell-trial records.

The correlator-wise pipeline follows the union-bound Hoeffding argument:
with four setting cells and a two-sided bound per cell, a total failure
probability alpha gives the score radius 4 sqrt(2 ln(8/alpha) / N_min).
The lower confidence bound is clipped to the physical interval [0, 2 sqrt(2)]
before the anti-collusion map; the signed estimate is used as-is, so callers
must pre-align the CHSH orientation.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, repeat
from math import ceil, log, sqrt

import numpy as np

from . import __version__
from .behaviors import Behavior, LhvModel, lhv_behavior
from .frontier import TSIRELSON, gamma_plus
from .qkernel import QuantumStrategy, born_behavior

ASSUMPTIONS = "iid,uniform-settings"

# The 16 valid trial rows as batch_to_csv writes them, indexed by 8x + 4y + 2[a=+1] + [b=+1].
_ROW_VALUES = np.array(
    [(x, y, a, b) for x in (0, 1) for y in (0, 1) for a in (-1, 1) for b in (-1, 1)],
    dtype=np.int64,
)
_ROWS = [",".join(map(str, row)) for row in _ROW_VALUES.tolist()]
_ROW_CODES = {row: code for code, row in enumerate(_ROWS)}


def _cells(x, y, a, b):
    """Index 4x + 2y + [a b = +1] into the count table over (x, y, [a b = +1])."""
    return 4 * x + 2 * y + (a == b)


_CODE_CELLS = _cells(*_ROW_VALUES.T)  # the cell of each row code

# Bytes of a trial file read at a time.
CHUNK_SIZE = 1 << 16
# Trials written at a time.
_CSV_BLOCK = 1 << 16


class EmptyCellError(ValueError):
    """A setting pair has no trials; the correlator-wise estimate is refused."""


@dataclass(frozen=True)
class TrialBatch:
    """Record of i.i.d. CHSH trials with settings x, y and outcomes a, b."""

    x: np.ndarray  # setting bits in {0, 1}
    y: np.ndarray
    a: np.ndarray  # outcomes in {-1, +1}
    b: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.int64)
        y = np.asarray(self.y, dtype=np.int64)
        a = np.asarray(self.a, dtype=np.int64)
        b = np.asarray(self.b, dtype=np.int64)
        n = x.size
        if not (y.size == a.size == b.size == n) or n == 0:
            raise ValueError("trial columns must be equal-length and nonempty")
        if ((x | y) >> 1).any():
            raise ValueError("settings must be bits")
        # v + 1 is 0 or 2 exactly when v is -1 or 1, also where v + 1 wraps
        if (((a + 1) | (b + 1)) & ~2).any():
            raise ValueError("outcomes must be +-1")
        for name, arr in (("x", x), ("y", y), ("a", a), ("b", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CorrelatorStats:
    """Per-setting empirical correlators and counts."""

    e_hat: np.ndarray  # shape (2, 2)
    n: np.ndarray  # shape (2, 2)
    n_min: int
    s_hat: float


@dataclass(frozen=True)
class FiniteDataCertificate:
    """Confidence-bounded anti-collusion certificate."""

    s_hat: float
    radius: float
    s_lcb: float
    s_cert: float
    gamma_lcb: float
    confidence: float
    estimator: str  # correlator_wise | single_trial


def simulate_trials(strategy: QuantumStrategy | LhvModel, n: int, seed: int) -> TrialBatch:
    """Sample n i.i.d. trials with uniform settings from the strategy's behavior."""
    if n < 1:
        raise ValueError("need at least one trial")
    if isinstance(strategy, QuantumStrategy):
        behavior = born_behavior(strategy)
    elif isinstance(strategy, LhvModel):
        behavior = lhv_behavior(strategy)
    else:
        raise ValueError("strategy must be a QuantumStrategy or LhvModel")
    return sample_behavior_trials(behavior, n, seed)


def sample_behavior_trials(behavior: Behavior, n: int, seed: int) -> TrialBatch:
    """n trials with uniform settings of a 2-party, 2-input, 2-output behavior."""
    if behavior.n_parties != 2:
        raise ValueError("trial simulation expects a 2-party strategy")
    if behavior.inputs_per_party != (2, 2) or behavior.outputs_per_party != (2, 2):
        raise ValueError("trial simulation expects 2 inputs and 2 outputs per party")
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    y = rng.integers(0, 2, size=n)
    joint = rng.random(n)
    # idx = 2 [a = -1] + [b = -1]: how many of the cell's first three partial sums are <= u
    cdf = np.cumsum(behavior.table.reshape(4, 4), axis=1)  # row 2x + y
    cell = 2 * x + y
    idx = np.zeros(n, dtype=np.uint8)
    for k in range(3):
        idx += cdf[:, k].take(cell) <= joint
    del joint, cell
    return TrialBatch(x=x, y=y, a=np.where(idx >> 1, -1, 1), b=np.where(idx & 1, -1, 1))


def _cell_sums(trials: TrialBatch | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trials per setting cell and the sum of a b over each, both shape (2, 2).

    Both are integers read from one count table over (x, y, [a b = +1]):
    the table itself, as `read_trial_counts` returns it, or the table of a
    batch. A mean formed from them is exact up to its one division.
    """
    if isinstance(trials, TrialBatch):
        cells = _cells(trials.x, trials.y, trials.a, trials.b)
        trials = np.bincount(cells, minlength=8).reshape(2, 2, 2)
    return trials.sum(axis=2), trials[..., 1] - trials[..., 0]


def estimate_correlators(trials: TrialBatch | np.ndarray) -> CorrelatorStats:
    """Empirical correlators E_xy = mean(a b | x, y); refuses empty cells."""
    counts, sums = _cell_sums(trials)
    empty = np.argwhere(counts == 0)
    if empty.size:
        raise EmptyCellError(f"no trials with settings ({empty[0, 0]}, {empty[0, 1]})")
    e_hat = sums / counts
    s_hat = e_hat[0, 0] + e_hat[0, 1] + e_hat[1, 0] - e_hat[1, 1]
    return CorrelatorStats(e_hat=e_hat, n=counts, n_min=int(counts.min()), s_hat=float(s_hat))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def hoeffding_radius(n_min: int, alpha: float) -> float:
    """Score radius 4 sqrt(2 ln(8/alpha) / n_min) at total failure probability alpha."""
    if n_min < 1:
        raise ValueError("n_min must be at least 1")
    _check_alpha(alpha)
    return 4.0 * sqrt(2.0 * log(8.0 / alpha) / n_min)


def _certificate(s_hat: float, radius: float, alpha: float, estimator: str) -> FiniteDataCertificate:
    s_lcb = s_hat - radius
    s_cert = min(TSIRELSON, max(0.0, s_lcb))
    return FiniteDataCertificate(
        s_hat=float(s_hat),
        radius=float(radius),
        s_lcb=float(s_lcb),
        s_cert=float(s_cert),
        gamma_lcb=gamma_plus(s_cert),
        confidence=1.0 - alpha,
        estimator=estimator,
    )


def lower_confidence_bound(stats: CorrelatorStats, alpha: float) -> FiniteDataCertificate:
    """Correlator-wise certificate: s_lcb = s_hat - radius, clipped, mapped."""
    return _certificate(
        stats.s_hat, hoeffding_radius(stats.n_min, alpha), alpha, "correlator_wise"
    )


def single_trial_lcb(trials: TrialBatch | np.ndarray, alpha: float) -> FiniteDataCertificate:
    """Single-trial certificate from Z_i = 4 (-1)^(x y) a b.

    Unbiased for the score only under uniform settings; the radius is
    4 sqrt(2 ln(1/alpha) / N).
    """
    _check_alpha(alpha)
    counts, sums = _cell_sums(trials)
    n = int(counts.sum())
    z_sum = 4 * int(sums[0, 0] + sums[0, 1] + sums[1, 0] - sums[1, 1])
    radius = 4.0 * sqrt(2.0 * log(1.0 / alpha) / n)
    return _certificate(z_sum / n, radius, alpha, "single_trial")


def samples_for_onset(s_true: float, alpha: float) -> int:
    """Smallest per-cell count making s_lcb exceed 2 when s_hat = s_true.

    Closed-form inversion of the radius: ceil(32 ln(8/alpha) / (s_true - 2)^2).
    A CHSH score is at most 4, so s_true must lie in (2, 4]; NaN does not.
    """
    if not 2.0 < s_true <= 4.0:
        raise ValueError(f"onset unreachable: the true score must lie in (2, 4], got {s_true}")
    _check_alpha(alpha)
    return ceil(32.0 * log(8.0 / alpha) / (s_true - 2.0) ** 2)


def batch_csv_blocks(batch: TrialBatch) -> Iterator[str]:
    """`batch_to_csv` in pieces: the header, then _CSV_BLOCK rows at a time."""
    yield "x,y,a,b\n"
    for start in range(0, batch.x.size, _CSV_BLOCK):
        block = slice(start, start + _CSV_BLOCK)
        codes = (8 * batch.x[block] + 4 * batch.y[block] + 2 * (batch.a[block] == 1)
                 + (batch.b[block] == 1))
        yield "\n".join(map(_ROWS.__getitem__, codes.tolist())) + "\n"


def batch_to_csv(batch: TrialBatch) -> str:
    """Trial file format: header x,y,a,b and one trial per row."""
    return "".join(batch_csv_blocks(batch))


def _utf8_pieces(fh) -> Iterator[str]:
    """The text of a UTF-8 file, CHUNK_SIZE bytes at a time, in pieces that end lines.

    Each piece but the last is cut after its last line feed or carriage
    return, so no line spans two pieces. A block without one is held; only
    the new block is searched and the held blocks are joined once, so a line
    that spans many blocks costs linear time. A byte that is not UTF-8
    raises with its position in the whole file, as one decode of the file
    does.
    """
    offset, held = 0, []
    for block in chain(iter(partial(fh.read, CHUNK_SIZE), b""), [b""]):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if block and not cut:
            held.append(block)
            continue
        piece = b"".join([*held, block[:cut]])
        held = [block[cut:]]
        try:
            text = piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError(
                exc.encoding, bytes(offset) + piece, offset + exc.start, offset + exc.end,
                exc.reason,
            ) from None
        offset += len(piece)
        yield text


def _canonical_codes(data: bytes) -> np.ndarray:
    """Index into `_ROWS` of each nonempty line of `data`, or -1 where the
    line is not written as `batch_to_csv` writes it.

    `data` ends with a line feed. A line is canonical when it reads x,y,a,b
    with x and y bits and a and b each 1 or -1: every byte is checked at its
    place, and the length is 7 + [a = -1] + [b = -1].
    """
    buf = np.frombuffer(data + bytes(8), np.uint8)  # gathers reach 8 bytes past a line start
    ends = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    full = ends > starts
    starts, ends = starts[full], ends[full]
    x, comma1, y, comma2, a = (buf[k:][starts] for k in range(5))
    a_minus = a == 45
    a_one = starts + 4 + a_minus  # where a's 1 must be
    b_minus = buf[2:][a_one] == 45
    canonical = (
        ((x | 1) == 49) & ((y | 1) == 49) & (comma1 == 44) & (comma2 == 44)
        & (buf[a_one] == 49) & (buf[1:][a_one] == 44) & (buf[2:][a_one + b_minus] == 49)
        & (ends - a_one == 3 + b_minus)
    )
    codes = 8 * (x & 1) + 4 * (y & 1) + 2 * ~a_minus + ~b_minus
    return np.where(canonical, codes, -1)


def _canonical_piece(held: list[str], piece: str) -> np.ndarray | None:
    """Codes of the nonempty lines of the held lines and the piece, if all are canonical.

    Otherwise None: the piece does not end with a line feed, a character
    other than "01,-" and line feeds occurs, or a line is not canonical.
    """
    if not piece.endswith("\n"):
        return None
    data = "\n".join([*held, piece]).encode()
    if data.translate(None, b"01,-\n"):
        return None
    codes = _canonical_codes(data)
    return None if (codes < 0).any() else codes


def _trial_codes(pieces: Iterable[str]) -> Iterator[np.ndarray]:
    """Indices into `_ROWS` of the rows of trial-file text, one array per piece.

    Each piece but the last ends a line. The lines are those of
    `text.strip().splitlines()` for the whole text, empty ones dropped: the
    header x,y,a,b (spaces ignored), then one trial per row. So the last
    nonblank line of a piece waits for the next piece, with the first
    whitespace-only line after it (a malformed row if another row follows).
    A piece after the header made only of canonical rows ended by line feeds
    is coded as one array by `_canonical_piece`. Any other piece is split
    into lines: canonical rows are looked up, and other spellings (" +1",
    "01", ...) go through int() as written. Errors are raised after the
    last piece, the first that holds of: a bad header, a header with no
    rows, the first malformed row, settings that are not bits, outcomes
    that are not +-1.
    """
    header = error = None
    held: list[str] = []
    n_rows = 0
    bad_settings = bad_outcomes = False
    for piece in chain(pieces, [None]):
        # a piece of canonical rows is coded in bulk; its last row waits as any would
        if (piece is not None and header is not None
                and (bulk := _canonical_piece(held, piece)) is not None):
            codes, held = bulk[:-1], [_ROWS[code] for code in bulk[-1:]]
            n_rows += codes.size
            yield codes
            continue
        if piece is None:  # the text's last nonblank line loses its trailing whitespace
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
                # counted before splitting: a long malformed row is not cut into fields,
                # and its message quotes only its first 80 characters
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


def batch_from_csv(text: str) -> TrialBatch:
    """The trials of trial-file text in file order, parsed as `read_trial_counts` parses."""
    data = _ROW_VALUES[np.concatenate(list(_trial_codes([text])))]
    return TrialBatch(x=data[:, 0], y=data[:, 1], a=data[:, 2], b=data[:, 3])


def read_trial_counts(path: str) -> np.ndarray:
    """Count table over (x, y, [a b = +1]), shape (2, 2, 2), of a trial file.

    Each piece of the file is dropped once its rows are counted, so memory
    does not grow with the file. It accepts and rejects what `batch_from_csv`
    does on the decoded text; a byte that is not UTF-8 is reported first.
    """
    table = np.zeros(8, dtype=np.int64)
    with open(path, "rb") as fh:
        for codes in _trial_codes(_utf8_pieces(fh)):
            table += np.bincount(_CODE_CELLS[codes], minlength=8)
    return table.reshape(2, 2, 2)


def certificate_to_json(cert: FiniteDataCertificate) -> str:
    """Certificate JSON with tool version and the assumption string."""
    payload = asdict(cert) | {"assumptions": ASSUMPTIONS, "tool_version": __version__}
    return json.dumps(payload, indent=2) + "\n"
