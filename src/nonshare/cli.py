"""Command-line front-end for the certification pipelines.

Subcommands map one-to-one onto the library modules: analytic frontier and
Werner tables, finite-data certification, trial simulation, moment-matrix
scans, the capacity-equals-distance verification harness, and the payoff
separation report. Every run is deterministic given its flags and seed and
emits byte-identical output on rerun.

Exit codes: 0 success, 2 input error, 3 verification failure, 4 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import asdict, astuple, fields

import numpy as np

from . import behaviors, extlp, finitedata, frontier, npa, qkernel

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_SOLVER = 4

ALPHA0_DEVIATION_TOL = 1e-3
DISTANCE_TOL = 1e-6


def _write_output(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or its pieces in order, to stdout or to the file out."""
    pieces = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _write_table(
    columns: tuple[str, ...], rows: list[tuple[float, ...]], fmt: str, out: str | None
) -> None:
    """A float table as a JSON list of objects, or as CSV at 9 significant digits."""
    if fmt == "json":
        text = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    else:
        lines = [",".join(columns)] + [",".join(f"{v:.9g}" for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write_output(text, out)


def cmd_frontier(args: argparse.Namespace) -> int:
    s_min = args.s_min
    s_max = args.s_max if args.s_max is not None else frontier.TSIRELSON
    if not (0.0 <= s_min < s_max <= frontier.TSIRELSON) or args.points < 2:
        raise ValueError("frontier range must satisfy 0 <= s-min < s-max <= 2*sqrt(2)")
    rows = []
    for s in map(float, np.linspace(s_min, s_max, args.points)):
        rec = frontier.certify(s)
        rows.append((s, rec.s13_max, frontier.omega_from_s(s), rec.omega13_max, rec.gamma_plus))
    columns = ("s", "s13_max", "omega12", "omega13_max", "gamma_plus")
    _write_table(columns, rows, args.format, args.out)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    if (args.s12 is None) == (args.trials is None):
        raise ValueError("provide exactly one of --s12 or --trials")
    if args.s12 is not None:
        _write_output(json.dumps(asdict(frontier.certify(args.s12)), indent=2) + "\n", args.out)
        return EXIT_OK
    counts = finitedata.read_trial_counts(args.trials)
    if args.estimator == "single_trial":
        cert = finitedata.single_trial_lcb(counts, args.alpha)
    else:
        stats = finitedata.estimate_correlators(counts)
        cert = finitedata.lower_confidence_bound(stats, args.alpha)
    _write_output(finitedata.certificate_to_json(cert), args.out)
    return EXIT_OK


def _parse_strategy(spec: str):
    if spec == "bell":
        return qkernel.bell_strategy()
    if spec.startswith("werner:"):
        eta = float(spec.split(":", 1)[1])
        return qkernel.werner_strategy(eta)
    if spec.startswith("lhv:"):
        path = spec.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            return behaviors.lhv_model_from_json(json.load(fh))
    raise ValueError(f"unknown strategy spec {spec!r}; use bell, werner:ETA, or lhv:FILE")


def cmd_simulate(args: argparse.Namespace) -> int:
    strategy = _parse_strategy(args.strategy)
    batch = finitedata.simulate_trials(strategy, args.n, args.seed)
    _write_output(finitedata.batch_csv_blocks(batch), args.out)
    return EXIT_OK


def cmd_werner(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError("werner scan needs at least 2 points")
    records = frontier.werner_scan([float(v) for v in np.linspace(0.0, 1.0, args.points)])
    columns = tuple(f.name for f in fields(frontier.WernerRecord))
    _write_table(columns, [astuple(r) for r in records], args.format, args.out)
    return EXIT_OK


def cmd_npa_scan(args: argparse.Namespace) -> int:
    try:
        alphas = [float(tok) for tok in args.alphas.split(",") if tok]
    except ValueError as exc:
        raise ValueError(f"bad --alphas list: {args.alphas!r}") from exc
    if not alphas or any(not 0.0 <= a <= 2.0 for a in alphas):
        raise ValueError("alpha values must lie in [0, 2]")
    rows = npa.scan(
        alphas,
        args.grid,
        eps_abs=args.eps_abs,
        eps_rel=args.eps_rel,
        max_iters=args.max_iters,
    )
    _write_output(npa.scan_to_csv(rows), args.out)
    report = npa.alpha0_report(rows)
    mask = report.certified_mask
    if mask:
        print(
            f"alpha=0 sanity: certified {sum(mask)}/{len(mask)}, "
            f"max deviation from sqrt(8-s^2) = {report.max_dev:.3e}",
            file=sys.stderr,
        )
        # NaN (no certified row) compares False
        if report.max_dev > ALPHA0_DEVIATION_TOL:
            print("alpha=0 sanity FAILED (deviation above 1e-3)", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _copied_seed_scores(model: behaviors.LhvModel) -> tuple[float, float]:
    """CHSH scores of the model's pair and of a colluder copying party 2's rule."""
    kernel = behaviors.chsh_kernel()
    p12 = behaviors.lhv_behavior(model)
    p123 = behaviors.copied_seed_extension(model, model.responses[1])
    p13 = behaviors.relabel_13_to_12(behaviors.marginal(p123, (1, 3)), reference=p12)
    return behaviors.game_score(p12, kernel), behaviors.game_score(p13, kernel)


def cmd_verify_distance(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise ValueError("need at least one instance")
    rng = np.random.default_rng(args.seed)
    p12s = [extlp.random_ns_behavior(rng) for _ in range(args.instances)]
    records = extlp.verification_records(p12s, extlp.NO_SIGNALLING)
    max_disc = max(rec["discrepancy"] for rec in records)
    witness_models = 10
    witness_exact = True
    for _ in range(witness_models):
        a12, c13 = _copied_seed_scores(extlp.random_lhv_model(rng))
        if c13 != a12:
            witness_exact = False
    summary = {
        "summary": True,
        "instances": args.instances,
        "max_discrepancy": max_disc,
        "copied_seed_models": witness_models,
        "copied_seed_exact": witness_exact,
    }
    text = extlp.corpus_to_jsonl(records) + json.dumps(summary) + "\n"
    _write_output(text, args.out)
    if max_disc > DISTANCE_TOL or not witness_exact:
        print(
            f"verification FAILED: max discrepancy {max_disc:.3e}, "
            f"copied-seed exact: {witness_exact}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_game_separation(args: argparse.Namespace) -> int:
    kernel = behaviors.chsh_kernel()
    a12_q = behaviors.game_score(qkernel.born_behavior(qkernel.bell_strategy()), kernel)
    s12_q = 8.0 * a12_q - 4.0
    if abs(s12_q - frontier.TSIRELSON) < 1e-12:
        # saturation verified: the pair-score trade-off pins the partner
        # score to 0, dodging the square-root amplification of float dust
        v13_q = frontier.omega_from_s(0.0)
    else:
        v13_q = frontier.omega_from_s(frontier.s13_max(min(s12_q, frontier.TSIRELSON)))
    uniform_resp = np.full((1, 2, 2), 0.5)
    best = behaviors.LhvModel(
        weights=np.array([1.0]),
        responses=(
            np.array([[[1.0, 0.0], [1.0, 0.0]]]),
            np.array([[[1.0, 0.0], [1.0, 0.0]]]),
        ),
    )
    uniform = behaviors.LhvModel(
        weights=np.array([1.0]), responses=(uniform_resp, uniform_resp)
    )

    def classical_block(model: behaviors.LhvModel) -> dict:
        a12, c13 = _copied_seed_scores(model)
        return {
            "a12": a12,
            "v13": c13,
            "u1": a12 - c13,
            "witness": "copied-seed colluder",
        }

    payload = {
        "quantum": {
            "a12": a12_q,
            "v13": v13_q,
            "u1": a12_q - v13_q,
            "witness": "pair-score monogamy bound",
        },
        "classical_best_chsh": classical_block(best),
        "classical_uniform": classical_block(uniform),
        "separation": a12_q - v13_q,
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonshare",
        description="Anti-collusion certification toolkit for pair behaviors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frontier", help="score frontier table")
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("certify", help="certificate from a score or a trial file")
    p.add_argument("--s12", type=float, default=None)
    p.add_argument("--trials", default=None)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument(
        "--estimator", choices=("correlator_wise", "single_trial"), default="correlator_wise"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="simulate trials to a CSV file")
    p.add_argument("--strategy", required=True, help="bell | werner:ETA | lhv:FILE")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("werner", help="noise scan of the certified gap")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("npa-scan", help="moment-matrix threshold scan")
    p.add_argument("--alphas", default="0,0.5,1.0,1.5", help="comma-separated tilts")
    p.add_argument("--grid", type=int, default=60)
    p.add_argument("--eps-abs", type=float, default=npa.DEFAULT_EPS_ABS)
    p.add_argument("--eps-rel", type=float, default=npa.DEFAULT_EPS_REL)
    p.add_argument("--max-iters", type=int, default=npa.DEFAULT_MAX_ITERS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_npa_scan)

    p = sub.add_parser("verify-distance", help="capacity-equals-distance harness")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_distance)

    p = sub.add_parser("game-separation", help="payoff separation report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_game_separation)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (extlp.LpInfeasibleError, extlp.LpNumericalError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
