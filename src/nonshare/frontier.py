"""Exact analytic anti-collusion frontier for the CHSH game.

All formulas are evaluated in double precision; 8 - s^2 is computed as
(2 sqrt(2) - s)(2 sqrt(2) + s) to avoid cancellation near the quantum
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

SQRT2 = sqrt(2.0)
TSIRELSON = 2.0 * SQRT2
GAMMA_MAX = 1.0 / TSIRELSON


@dataclass(frozen=True)
class CertificateRecord:
    """Output bundle of the 4-step score certification protocol."""

    s12: float
    s13_max: float
    omega13_max: float
    gamma_plus: float
    regime: str  # below_local | certified
    provenance: str


@dataclass(frozen=True)
class WernerRecord:
    """One row of the Werner-noise scan."""

    eta: float
    s12: float
    a12: float
    c13_max_bound: float
    gap: float


def _check_range(s: float, lo: float, hi: float, name: str) -> None:
    if not lo <= s <= hi:
        raise ValueError(f"{name} must lie in [{lo:.6g}, {hi:.6g}], got {s!r}")


def s13_max(s: float) -> float:
    """Largest colluder score sqrt(8 - s^2) compatible with authorized score s."""
    _check_range(s, 0.0, TSIRELSON, "s")
    return sqrt((TSIRELSON - s) * (TSIRELSON + s))


def gamma_plus(s: float) -> float:
    """Score-certified anti-collusion power [(s - sqrt(8 - s^2)) / 8]_+.

    Zero for s <= 2, strictly increasing above, and 1/(2 sqrt(2)) at the
    quantum boundary.
    """
    _check_range(s, 0.0, TSIRELSON, "s")
    return max(0.0, (s - s13_max(s)) / 8.0)


def omega_from_s(s: float) -> float:
    """Winning probability 1/2 + s/8 of the CHSH predicate game."""
    _check_range(s, -TSIRELSON, TSIRELSON, "s")
    return 0.5 + s / 8.0


def certify(s12: float) -> CertificateRecord:
    """Run the score certification protocol on a signed CHSH score.

    Rejects scores above the quantum boundary rather than clipping; clipping
    belongs to the finite-data pipeline.
    """
    _check_range(s12, 0.0, TSIRELSON, "s12")
    cap = s13_max(s12)
    return CertificateRecord(
        s12=s12,
        s13_max=cap,
        omega13_max=omega_from_s(cap),
        gamma_plus=gamma_plus(s12),
        regime="below_local" if s12 <= 2.0 else "certified",
        provenance="analytic",
    )


def werner_gap(eta: float) -> float:
    """Certified gap [(eta - sqrt(1 - eta^2)) / (2 sqrt(2))]_+ at noise eta."""
    _check_range(eta, 0.0, 1.0, "eta")
    return max(0.0, (eta - sqrt((1.0 - eta) * (1.0 + eta))) / TSIRELSON)


def werner_scan(eta_grid: list[float]) -> list[WernerRecord]:
    """Werner-noise scan; the gap turns positive exactly above 1/sqrt(2)."""
    records = []
    for eta in eta_grid:
        _check_range(eta, 0.0, 1.0, "eta")
        s12 = TSIRELSON * eta
        a12 = omega_from_s(s12)
        c13 = omega_from_s(s13_max(s12))
        records.append(
            WernerRecord(eta=eta, s12=s12, a12=a12, c13_max_bound=c13, gap=werner_gap(eta))
        )
    return records
