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
from itertools import repeat
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

# Bytes of a trial file (characters of a trial text) read at a time.
CHUNK_SIZE = 1 << 16


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
        if (x >> 1).any() or (y >> 1).any():
            raise ValueError("settings must be bits")
        # |INT64_MIN| wraps to INT64_MIN, which is not 1 either
        if not ((np.abs(a) == 1).all() and (np.abs(b) == 1).all()):
            raise ValueError("outcomes must be +-1")
        for name, arr in (("x", x), ("y", y), ("a", a), ("b", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_trials(self) -> int:
        return self.x.size


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
    if behavior.n_parties != 2:
        raise ValueError("trial simulation expects a 2-party strategy")
    if behavior.inputs_per_party != (2, 2) or behavior.outputs_per_party != (2, 2):
        raise ValueError("trial simulation expects 2 inputs and 2 outputs per party")
    return sample_behavior_trials(behavior, n, seed)


def sample_behavior_trials(behavior: Behavior, n: int, seed: int) -> TrialBatch:
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
    return TrialBatch(x=x, y=y, a=a, b=b)


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


def hoeffding_radius(n_min: int, alpha: float) -> float:
    """Score radius 4 sqrt(2 ln(8/alpha) / n_min) at total failure probability alpha."""
    if n_min < 1:
        raise ValueError("n_min must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
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
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    counts, sums = _cell_sums(trials)
    n = int(counts.sum())
    z_sum = 4 * int(sums[0, 0] + sums[0, 1] + sums[1, 0] - sums[1, 1])
    radius = 4.0 * sqrt(2.0 * log(1.0 / alpha) / n)
    return _certificate(z_sum / n, radius, alpha, "single_trial")


def samples_for_onset(s_true: float, alpha: float) -> int:
    """Smallest per-cell count making s_lcb exceed 2 when s_hat = s_true.

    Closed-form inversion of the radius: ceil(32 ln(8/alpha) / (s_true - 2)^2).
    """
    if s_true <= 2.0:
        raise ValueError("onset unreachable: the true score must exceed 2")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return ceil(32.0 * log(8.0 / alpha) / (s_true - 2.0) ** 2)


def batch_to_csv(batch: TrialBatch) -> str:
    """Trial file format: header x,y,a,b and one trial per row."""
    codes = 8 * batch.x + 4 * batch.y + 2 * (batch.a == 1) + (batch.b == 1)
    return "x,y,a,b\n" + "\n".join(map(_ROWS.__getitem__, codes.tolist())) + "\n"


def _line_blocks(blocks: Iterable, breaks: tuple) -> Iterator:
    """The concatenated blocks, cut after the last line break of each.

    A block without a line break joins the next one, so no line spans two
    blocks. Works on str and on bytes, with breaks of the same type.
    """
    rest = None
    for block in blocks:
        if rest:
            block = rest + block
        cut = max(map(block.rfind, breaks)) + 1
        rest = block[cut:]
        if cut:
            yield block[:cut]
    if rest:
        yield rest


def _decoded(blocks: Iterable[bytes]) -> Iterator[str]:
    """UTF-8 blocks cut after line breaks, decoded one at a time."""
    offset = 0
    for block in blocks:
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            # report the position in the whole file, as one decode of the file does
            raise UnicodeDecodeError(
                exc.encoding, bytes(offset) + block, offset + exc.start, offset + exc.end,
                exc.reason,
            ) from None
        offset += len(block)
        yield text


def _blank(line: str) -> bool:
    return not line or line.isspace()


def _check_header(line: str) -> None:
    if line.lstrip().replace(" ", "") != "x,y,a,b":
        raise ValueError("trial file must start with header x,y,a,b")


def _trial_rows(blocks: Iterable[str]) -> Iterator[list[str]]:
    """The row lines of trial-file text, one list per block, header checked.

    Lines are those of `text.strip().splitlines()` for the whole text: blank
    lines before the header are dropped, and so is trailing whitespace,
    which only the file's last nonblank line loses. So each block's last
    nonblank line waits for the next block, with the first nonempty blank
    line after it (a blank line between rows is a malformed row, and the
    first one stops the parse). Empty lines stay in the lists.
    """
    header = False
    held: list[str] = []
    for block in blocks:
        lines = held + block.splitlines()
        last = len(lines) - 1
        while last >= 0 and _blank(lines[last]):
            last -= 1
        held = [ln for ln in lines[max(last, 0):] if ln][:2]
        del lines[max(last, 0):]
        if not header:
            first = next((i for i, ln in enumerate(lines) if not _blank(ln)), len(lines))
            if first == len(lines):
                continue
            _check_header(lines[first])
            header = True
            del lines[: first + 1]
        yield lines
    last_line = held[0].rstrip() if held else ""
    if not header:
        _check_header(last_line)
    else:
        yield [last_line]


def _trial_codes(blocks: Iterable[str]) -> Iterator[np.ndarray]:
    """Row codes 8x + 4y + 2[a=+1] + [b=+1] of trial-file text, one array per block.

    The canonical rows of `batch_to_csv` are looked up; other spellings
    (" +1", "01", ...) go through int() as written. A malformed row raises at
    once. A row with a value out of range raises only after the whole text
    is read, so that a malformed row anywhere comes first, then settings
    that are not bits, then outcomes that are not +-1.
    """
    n_rows = 0
    bad_settings = bad_outcomes = False
    for lines in _trial_rows(blocks):
        rows = list(filter(None, lines))
        codes = np.fromiter(map(_ROW_CODES.get, rows, repeat(-1)), np.int64, len(rows))
        invalid = []
        for i in np.flatnonzero(codes < 0).tolist():
            parts = rows[i].split(",")
            if len(parts) != 4:
                raise ValueError(f"malformed trial row: {rows[i]!r}")
            x, y, a, b = map(int, parts)
            if x not in (0, 1) or y not in (0, 1):
                bad_settings = True
            elif a not in (-1, 1) or b not in (-1, 1):
                bad_outcomes = True
            else:
                codes[i] = 8 * x + 4 * y + 2 * (a == 1) + (b == 1)
                continue
            invalid.append(i)
        n_rows += len(rows)
        yield np.delete(codes, invalid) if invalid else codes
    if not n_rows:
        raise ValueError("trial file has a header but no rows")
    if bad_settings:
        raise ValueError("settings must be bits")
    if bad_outcomes:
        raise ValueError("outcomes must be +-1")


def batch_from_csv(text: str) -> TrialBatch:
    """The trials of trial-file text in file order, parsed as `read_trial_counts` parses."""
    blocks = (text[i : i + CHUNK_SIZE] for i in range(0, len(text), CHUNK_SIZE))
    codes = np.concatenate(list(_trial_codes(_line_blocks(blocks, ("\n", "\r")))))
    data = _ROW_VALUES[codes]
    return TrialBatch(x=data[:, 0], y=data[:, 1], a=data[:, 2], b=data[:, 3])


def read_trial_counts(path: str) -> np.ndarray:
    """Count table over (x, y, [a b = +1]), shape (2, 2, 2), of a trial file.

    The file is read CHUNK_SIZE bytes at a time and each block is dropped
    once its rows are counted, so memory does not grow with the file. It
    accepts and rejects what `batch_from_csv` does on the decoded text.
    """
    table = np.zeros(8, dtype=np.int64)
    with open(path, "rb") as fh:
        blocks = _decoded(_line_blocks(iter(partial(fh.read, CHUNK_SIZE), b""), (b"\n", b"\r")))
        try:
            for codes in _trial_codes(blocks):
                table += np.bincount(_CODE_CELLS[codes], minlength=8)
        except ValueError:
            for _ in blocks:  # a byte that is not UTF-8, anywhere in the file, is reported first
                pass
            raise
    return table.reshape(2, 2, 2)


def certificate_to_json(cert: FiniteDataCertificate) -> str:
    """Certificate JSON with tool version and the assumption string."""
    payload = asdict(cert) | {"assumptions": ASSUMPTIONS, "tool_version": __version__}
    return json.dumps(payload, indent=2) + "\n"
