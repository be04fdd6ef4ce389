"""Run one benchmark workload in this process and print its result as JSON.

Started by run.py in a fresh interpreter, from the root of a checkout, with
`src` on PYTHONPATH. A round is a fixed list of operations, the same in
every round of a run; the run repeats whole rounds while another one fits
into --seconds.
Only the operations themselves are timed: inputs are built before the first
round and every output is checked after its operation, against values that
checks.py computes apart from the program. With --trace 1 the rounds
alternate between untraced and traced, starting untraced, so the run
measures the tracing overhead itself; the per-layer figures come from the
traced rounds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from hashlib import sha256
from time import perf_counter

import numpy as np

import checks
from speed import WINDOW_S, SpeedLog
from tracer import Span, Tracer

from nonshare import behaviors, cli, extlp, finitedata, npa, qkernel

OUT_DIR = os.path.join("perfbench", "out")
WARM_UP_S = 1.0


@dataclass
class Op:
    """One timed operation; `units` > 0 marks it as the workload's unit of
    work (a solve, grid points, a certificate, LP instances)."""

    start: float
    end: float
    round: int
    units: int = 0
    wall_s: float = 0.0  # wall time less the speed probes inside it
    seconds: float = 0.0  # wall_s corrected to the reference speed


class Meter:
    """Operations, failures, speed probes and check failures of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rounds: list[tuple[float, float]] = []  # (start, end) per round
        self.ops: list[Op] = []
        self.speed = SpeedLog()
        self.errors: list[str] = []

    def call(self, label: str, fn) -> tuple[bool, object]:
        """Time fn(); (False, None) if it raised, else (True, its result)."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.ops.append(Op(start, perf_counter(), len(self.rounds)))
            self.failed += 1
            print(f"{label} raised {exc!r}", file=sys.stderr)
            return False, None
        self.ops.append(Op(start, perf_counter(), len(self.rounds)))
        return True, result

    def cli(self, argv: list[str]) -> str | None:
        """Time `nonshare ARGV`; None if it failed, else its stderr text."""
        err = io.StringIO()

        def invoke() -> int:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    return cli.main(argv)
                except SystemExit as exc:
                    return exc.code

        ok, code = self.call(f"nonshare {argv[0]}", invoke)
        if not ok:
            return None
        if code != 0:
            self.failed += 1
            print(f"nonshare {' '.join(argv)} exited with {code}: {err.getvalue()}",
                  file=sys.stderr)
            return None
        return err.getvalue()

    def unit(self, units: int = 1) -> None:
        """Count the last operation as `units` of the workload's work."""
        self.ops[-1].units = units

    def check(self, errors: list[str]) -> None:
        self.errors += errors

    def run_round(self, workload, sampled: bool) -> None:
        start = perf_counter()
        if sampled:
            self.speed.start()
        try:
            workload.run_round(self)
        finally:
            self.speed.stop()
            self.rounds.append((start, perf_counter()))

    def correct(self) -> None:
        """Set each operation's probe-free and speed-corrected seconds. The
        slowdown is the probes' mean over the operation widened by WINDOW_S
        on each side or, with no probe there (inside a traced round), over
        the whole run."""
        run_slowdown = self.speed.slowdown(float("-inf"), float("inf")) or 1.0
        for op in self.ops:
            op.wall_s = op.end - op.start - self.speed.probe_s(op.start, op.end)
            slowdown = self.speed.slowdown(op.start - WINDOW_S, op.end + WINDOW_S)
            op.seconds = op.wall_s / (slowdown or run_slowdown)

    def round_s(self, round_: int, wall: bool = False) -> float:
        return sum(op.wall_s if wall else op.seconds for op in self.ops if op.round == round_)


class NpaRows:
    """Cold sdp_solve at default settings on criterion 9's certified rows."""

    def __init__(self, seed: int, tmp: str) -> None:
        order = np.random.default_rng(seed).permutation(len(checks.NPA_ROWS))
        self.rows = [checks.NPA_ROWS[i] for i in order]

    def warm_up(self) -> None:
        npa.sdp_solve(npa.assemble(0.0, 2.0))

    def run_round(self, m: Meter) -> None:
        for alpha, s in self.rows:
            ok, sol = m.call(f"sdp_solve({alpha}, {s})",
                             lambda: npa.sdp_solve(npa.assemble(alpha, s)))
            if not ok:
                continue
            m.unit()
            m.check(checks.check_npa_row(alpha, s, sol.primal, sol.certified))


class NpaScan:
    """`nonshare npa-scan` on two tilts, grids ending at the quantum maximum.

    Every interior point of these grids certifies within 1550 iterations, so
    the cap of 3200 leaves each of them a twofold margin while the endpoints,
    which never certify, stop at the cap.
    """

    TILTS = (0.0, 0.5)
    GRID = 4
    MAX_ITERS = 3200

    def __init__(self, seed: int, tmp: str) -> None:
        order = np.random.default_rng(seed).permutation(len(self.TILTS))
        self.alphas = [self.TILTS[i] for i in order]
        self.out = os.path.join(tmp, "scan.csv")
        self.argv = ["npa-scan", "--alphas", ",".join(f"{a:g}" for a in self.alphas),
                     "--grid", str(self.GRID), "--max-iters", str(self.MAX_ITERS),
                     "--out", self.out]

    def warm_up(self) -> None:
        npa.sdp_solve(npa.assemble(0.0, 2.0))

    def run_round(self, m: Meter) -> None:
        stderr = m.cli(self.argv)
        if stderr is None:
            return
        m.unit(len(self.alphas) * self.GRID)
        with open(self.out, encoding="utf-8") as fh:
            m.check(checks.check_scan(fh.read(), stderr, self.alphas, self.GRID))


class Trials:
    """A 1e6-trial file simulated and certified through the CLI, then small
    in-memory Bell batches certified as in acceptance criterion 3."""

    N = 1_000_000
    ETA = 0.9
    CONFIDENCE_ALPHA = 0.01  # `certify --alpha` default
    BATCHES = 1000
    BATCH_TRIALS = 2000
    BATCH_ALPHA = 0.05

    def __init__(self, seed: int, tmp: str) -> None:
        self.csv = os.path.join(tmp, "trials.csv")
        self.certs = {est: os.path.join(tmp, f"{est}.json")
                      for est in ("correlator_wise", "single_trial")}
        self.simulate = ["simulate", "--strategy", f"werner:{self.ETA}", "--n", str(self.N),
                         "--seed", str(seed), "--out", self.csv]
        self.certify = {
            "correlator_wise": ["certify", "--trials", self.csv,
                                "--out", self.certs["correlator_wise"]],
            "single_trial": ["certify", "--trials", self.csv, "--estimator", "single_trial",
                             "--out", self.certs["single_trial"]],
        }
        self.batch_seeds = [int(v) for v in np.random.default_rng(seed).integers(
            0, 2**31, size=self.BATCHES)]
        self.bell = qkernel.bell_strategy()
        self.digest = ""

    def warm_up(self) -> None:
        # A full-size run of the seeded simulate: every timed rerun must
        # reproduce its bytes.
        cli.main(self.simulate)
        with open(self.csv, "rb") as fh:
            self.digest = sha256(fh.read()).hexdigest()

    def _certificate(self, seed: int):
        batch = finitedata.simulate_trials(self.bell, self.BATCH_TRIALS, seed)
        return finitedata.lower_confidence_bound(
            finitedata.estimate_correlators(batch), self.BATCH_ALPHA)

    def _check_trial_file(self, m: Meter) -> dict | None:
        """Check the simulated file; the certificates it must yield."""
        with open(self.csv, "rb") as fh:
            data = fh.read()
        if sha256(data).hexdigest() != self.digest:
            m.check(["seeded rerun of simulate is not byte-identical"])
        errors = checks.check_trial_file(data, self.N)
        m.check(errors)
        if errors:
            return None
        return checks.expected_certificates(checks.parse_trials(data), self.CONFIDENCE_ALPHA)

    def run_round(self, m: Meter) -> None:
        expected = self._check_trial_file(m) if m.cli(self.simulate) is not None else None
        for estimator, argv in self.certify.items():
            if m.cli(argv) is not None and expected is not None:
                with open(self.certs[estimator], encoding="utf-8") as fh:
                    m.check(checks.check_certificate(
                        fh.read(), expected[estimator], estimator, self.CONFIDENCE_ALPHA,
                        checks.TSIRELSON * self.ETA))
        s_lcbs = []
        for seed in self.batch_seeds:
            ok, cert = m.call("small certificate", lambda: self._certificate(seed))
            if ok:
                m.unit()
                s_lcbs.append(cert.s_lcb)
        if s_lcbs:
            m.check(checks.check_coverage(s_lcbs, checks.TSIRELSON, self.BATCH_ALPHA))


class LpCorpus:
    """`nonshare verify-distance` on random no-signalling behaviors, then
    classical-class LHV behaviors and the eight PR boxes through extlp."""

    NS_INSTANCES = 150
    LHV_INSTANCES = 100
    HIDDEN_STATES = 4

    def __init__(self, seed: int, tmp: str) -> None:
        self.out = os.path.join(tmp, "corpus.jsonl")
        self.argv = ["verify-distance", "--instances", str(self.NS_INSTANCES),
                     "--seed", str(seed), "--out", self.out]
        rng = np.random.default_rng(seed)
        self.lhv = []
        for _ in range(self.LHV_INSTANCES):
            weights = rng.dirichlet(np.ones(self.HIDDEN_STATES))
            resp1, resp2 = (np.stack([r, 1.0 - r], axis=2)
                            for r in rng.random((2, self.HIDDEN_STATES, 2)))
            self.lhv.append(_behavior(checks.lhv_table(weights, resp1, resp2)))
        self.boxes = [_behavior(checks.pr_box_table(a, b, c))
                      for a, b, c in np.ndindex(2, 2, 2)]

    def warm_up(self) -> None:
        extlp.verification_record(self.lhv[0], extlp.CLASSICAL)
        extlp.verification_record(self.boxes[0], extlp.NO_SIGNALLING)

    def run_round(self, m: Meter) -> None:
        if m.cli(self.argv) is not None:
            m.unit(self.NS_INSTANCES)
            with open(self.out, encoding="utf-8") as fh:
                m.check(checks.check_distance_corpus(fh.read(), self.NS_INSTANCES))
        for behaviors_, cls, expected in ((self.lhv, extlp.CLASSICAL, 0.0),
                                          (self.boxes, extlp.NO_SIGNALLING, 0.5)):
            for p12 in behaviors_:
                ok, rec = m.call(f"verification_record({cls})",
                                 lambda: extlp.verification_record(p12, cls))
                if ok:
                    m.unit()
                    m.check(checks.check_capacity_distance(
                        rec["capacity"], rec["distance"], expected))


def _behavior(table: np.ndarray) -> behaviors.Behavior:
    return behaviors.Behavior(2, (2, 2), (2, 2), table)


WORKLOADS = {"npa-rows": NpaRows, "npa-scan": NpaScan, "trials": Trials, "lp-corpus": LpCorpus}


def instrument(tr: Tracer) -> None:
    """Register spans on the public calls and counters on the numpy/scipy
    entry points that npa and extlp call."""

    def solve_attrs(span: Span, sol, prob, **_) -> None:
        span.attrs.update(alpha=prob.alpha, s=prob.s, iterations=sol.iterations,
                          certified=sol.certified,
                          endpoint=prob.s >= checks.quantum_maximum(prob.alpha) - 1e-9)

    tr.patch(npa, "build_structure", lambda f: tr.spanned("npa.build_structure", f))
    tr.patch(npa, "assemble", lambda f: tr.spanned("npa.assemble", f))
    tr.patch(npa, "sdp_solve", lambda f: tr.spanned("npa.sdp_solve", f, after=solve_attrs))
    tr.patch(npa, "lu_factor", lambda f: tr.counted("lu_factor", f))
    tr.patch(npa, "lu_solve", lambda f: tr.counted("lu_solve", f))
    tr.patch(np.linalg, "eigh", lambda f: tr.counted("eigh", f))
    tr.patch(np.linalg, "lstsq", lambda f: tr.counted("lstsq", f))

    for name in ("simulate_trials", "estimate_correlators", "lower_confidence_bound",
                 "single_trial_lcb", "batch_from_csv", "certificate_to_json"):
        tr.patch(finitedata, name, lambda f, name=name: tr.spanned(f"finitedata.{name}", f))
    tr.patch(finitedata, "sample_behavior_trials", lambda f: tr.spanned(
        "finitedata.sample_behavior_trials", f,
        after=lambda span, _, behavior, n, *a, **k: span.attrs.update(trials=n)))
    tr.patch(finitedata, "batch_to_csv", lambda f: tr.spanned(
        "finitedata.batch_to_csv", f,
        after=lambda span, text, *a, **k: span.attrs.update(bytes=len(text.encode()))))
    for owner in (finitedata, qkernel):
        tr.patch(owner, "born_behavior", lambda f: tr.spanned("qkernel.born_behavior", f))

    def lp_class(p12, extension_class, **_) -> str:
        return "ns" if extension_class == extlp.NO_SIGNALLING else "classical"

    def highs_nit(span: Span, res) -> None:
        span.attrs["highs_nit"] = span.attrs.get("highs_nit", 0) + int(res.nit)

    tr.patch(extlp, "verification_record",
             lambda f: tr.spanned("extlp.verification_record", f, tag=lp_class))
    tr.patch(extlp, "anticollusion_capacity",
             lambda f: tr.spanned("extlp.anticollusion_capacity", f))
    tr.patch(extlp, "shadow_tv_distance", lambda f: tr.spanned("extlp.shadow_tv_distance", f))
    tr.patch(extlp.ExtensionProblem, "__post_init__", lambda f: tr.spanned(
        "extlp.ExtensionProblem", f,
        tag=lambda prob: "ns" if prob.extension_class == extlp.NO_SIGNALLING else "classical"))
    tr.patch(extlp, "linprog", lambda f: tr.counted("linprog", f, after=highs_nit))

    tr.patch(cli, "main", lambda f: tr.spanned(
        "cli.main", f, after=lambda span, code, argv=None: span.attrs.update(argv=argv)))


def layer_metrics(spans: list[Span], round_s: float, attributed_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round; times in seconds per round."""
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in named[name])

    def counter(key: str, among: list[Span]) -> tuple[int, float]:
        pairs = [s.count(key) for s in among]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)

    solves = named["npa.sdp_solve"]
    iterations = sum(s.attrs.get("iterations", 0) for s in solves)
    solve_s = total("npa.sdp_solve")
    eigh_n, eigh_s = counter("eigh", solves)
    lstsq_n, lstsq_s = counter("lstsq", solves)
    lu_n, lu_s = counter("lu_solve", solves)
    factor_n, factor_s = counter("lu_factor", solves)
    # Each iteration solves the KKT system once, twice when the Anderson
    # step is rejected; each factorization is followed by one more solve.
    rejected = lu_n - iterations - factor_n

    lp_spans = [s for name in ("extlp.verification_record", "extlp.anticollusion_capacity",
                               "extlp.shadow_tv_distance", "extlp.ExtensionProblem")
                for s in named[name]]
    linprog_n, linprog_s = counter("linprog", spans)
    mains = named["cli.main"]
    metrics = {
        "npa.build_structure_s": total("npa.build_structure"),
        "npa.assemble_s": sum(s.self_s for s in named["npa.assemble"]),
        "npa.sdp_solve_s": solve_s,
        "npa.ms_per_iter": 1e3 * solve_s / iterations if iterations else 0.0,
        "npa.bookkeeping_s": sum(s.self_s for s in solves),
        "npa.eigh_s": eigh_s,
        "npa.eigh_per_iter": eigh_n / iterations if iterations else 0.0,
        "npa.lstsq_s": lstsq_s,
        "npa.lu_solve_s": lu_s,
        "npa.lu_factor_s": factor_s,
        "npa.lu_factor_calls": factor_n,
        "npa.iterations": iterations,
        "npa.anderson_accept_ratio": (lstsq_n - rejected) / lstsq_n if lstsq_n else 0.0,
        "npa.endpoint_s": sum(s.duration for s in solves if s.attrs.get("endpoint")),
        "finitedata.sample_s": total("finitedata.sample_behavior_trials"),
        "finitedata.to_csv_s": total("finitedata.batch_to_csv"),
        "finitedata.from_csv_s": total("finitedata.batch_from_csv"),
        "finitedata.estimate_s": total("finitedata.estimate_correlators")
        + total("finitedata.lower_confidence_bound"),
        "finitedata.single_trial_s": total("finitedata.single_trial_lcb"),
        "finitedata.csv_bytes": sum(s.attrs["bytes"] for s in named["finitedata.batch_to_csv"]),
        "finitedata.trials": sum(s.attrs["trials"]
                                 for s in named["finitedata.sample_behavior_trials"]),
        "qkernel.born_behavior_s": total("qkernel.born_behavior"),
        "qkernel.born_behavior_calls": len(named["qkernel.born_behavior"]),
        "extlp.linprog_s": linprog_s,
        "extlp.linprog_calls": linprog_n,
        "extlp.highs_nit": sum(s.attrs.get("highs_nit", 0) for s in spans),
    }
    for phase in ("ns", "classical"):
        metrics[f"extlp.{phase}.assembly_s"] = sum(
            s.self_s for s in lp_spans if s.tag == phase)
        metrics[f"extlp.{phase}.problem_s"] = sum(
            s.duration for s in named["extlp.ExtensionProblem"] if s.tag == phase)
    metrics.update({
        "cli.simulate_s": sum(s.duration for s in mains if s.attrs["argv"][0] == "simulate"),
        "cli.certify_s": sum(s.duration for s in mains if s.attrs["argv"][0] == "certify"
                             and "--estimator" not in s.attrs["argv"]),
        "cli.other_s": sum(s.self_s for s in mains),
        "trace.round_s": round_s,
        "trace.unattributed_s": round_s - attributed_s,
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="JSONL file for the spans")
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    tracer = Tracer()
    meter = Meter()
    traced_rounds: list[int] = []
    spans: list[tuple[list[Span], float]] = []  # per traced round
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        # Untimed work until the machine runs at its steady speed.
        start = perf_counter()
        while perf_counter() - start < WARM_UP_S:
            workload.warm_up()
        if args.trace:
            instrument(tracer)
        # Whole rounds only: stop once another round would overrun --seconds.
        start = perf_counter()
        longest = 0.0
        while True:
            round_ = len(meter.rounds)
            trace_round = bool(args.trace) and round_ % 2 == 1
            mark = tracer.mark()
            if trace_round:
                tracer.install()
            try:
                meter.run_round(workload, sampled=not trace_round)
            finally:
                tracer.uninstall()
            longest = max(longest, meter.rounds[-1][1] - meter.rounds[-1][0])
            if trace_round:
                traced_rounds.append(round_)
                spans.append((tracer.spans[mark:], tracer.attributed_s(mark)))
            overrun = perf_counter() - start + longest > args.seconds
            if overrun and (traced_rounds or not args.trace):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    meter.correct()
    rounds = [meter.round_s(r) for r in range(len(meter.rounds))]
    untraced = [seconds for r, seconds in enumerate(rounds) if r not in traced_rounds]
    if args.trace:
        layers = []
        for r, (round_spans, attributed) in zip(traced_rounds, spans):
            wall = meter.round_s(r, wall=True)
            row = layer_metrics(round_spans, wall, attributed)
            factor = rounds[r] / wall
            for key in row:
                if key.endswith("_s") or key == "npa.ms_per_iter":
                    row[key] *= factor
            layers.append(row)
        metrics = {key: statistics.median(row[key] for row in layers) for key in layers[0]}
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(rounds[r] for r in traced_rounds) / statistics.median(untraced) - 1.0)
        units = [op for op in meter.ops if op.units and op.round not in traced_rounds]
        metrics["work.op_median_s"] = statistics.median(op.seconds / op.units for op in units)
        metrics["work.ops_per_s"] = sum(op.units for op in units) / sum(op.seconds for op in units)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    else:
        metrics = {
            "run_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    wall_rounds = [meter.round_s(r, wall=True) for r in range(len(meter.rounds))]
    for message in meter.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not meter.errors,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "rounds": len(meter.rounds),
        "wall_round_s": wall_rounds,
        "probes": len(meter.speed.samples),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
