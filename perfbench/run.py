"""Benchmark of nonshare, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload npa-rows --seed 1 --seconds 10 --trace 0

Each workload runs in its own fresh interpreter (workload.py) with `src` on
PYTHONPATH and BLAS pinned to one thread; `--workload all` runs the
four one after another. Set-up time is measured apart, in fresh interpreters
that import nonshare.cli and nothing else. With --trace 0 the result holds
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; the last line of standard output is the result as one JSON object,
which is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("npa-rows", "npa-scan", "trials", "lp-corpus")
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 160
# Import time, then the same time corrected by the speed probe (speed.py),
# run right after the import in the same interpreter.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nonshare.cli; "
                "t = time.perf_counter() - t; import speed; "
                "print(t, t * speed.REFERENCE_S / sorted(speed.probe() for _ in range(5))[2])")
IMPORTTIME_MODULES = {"numpy": "cli.import.numpy_s",
                      "scipy.linalg": "cli.import.scipy_linalg_s",
                      "scipy.optimize": "cli.import.scipy_optimize_s"}


def bench_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # One BLAS thread: the solver's iteration counts depend on the thread
    # count, and on a shared host one thread gave steadier times than two.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(args: list[str], env: dict[str, str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


def setup_seconds(env: dict[str, str]) -> list[tuple[float, float]]:
    """(wall, corrected) import seconds of nonshare.cli in fresh interpreters,
    after one untimed import that fills the bytecode cache."""
    python(["-c", "import nonshare.cli"], env, 60)
    probe_env = dict(env, PYTHONPATH=os.pathsep.join((env["PYTHONPATH"], HERE)))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        wall, corrected = python(["-c", IMPORT_PROBE], probe_env, 60).stdout.split()
        samples.append((float(wall), float(corrected)))
    return samples


def import_breakdown(env: dict[str, str]) -> dict[str, float]:
    """Cumulative import times from `python -X importtime`, median of runs."""
    python(["-c", "import nonshare.cli"], env, 60)
    samples: dict[str, list[float]] = {key: [] for key in IMPORTTIME_MODULES.values()}
    for _ in range(IMPORT_SAMPLES):
        stderr = python(["-X", "importtime", "-c", "import nonshare.cli"], env, 60).stderr
        for line in stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in IMPORTTIME_MODULES:
                samples[IMPORTTIME_MODULES[fields[2].strip()]].append(int(fields[1]) / 1e6)
    return {key: statistics.median(values) for key, values in samples.items()}


def run_workload(name: str, args: argparse.Namespace, env: dict[str, str],
                 declared: dict[str, str], out_dir: str) -> dict:
    stem = os.path.join(out_dir, f"{name}-seed{args.seed}-trace{args.trace}")
    cmd = [os.path.join(HERE, "workload.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", stem + ".spans.jsonl"]
    child = python(cmd, env, CHILD_TIMEOUT_S)
    sys.stderr.write(child.stderr)
    result = json.loads(child.stdout.strip().splitlines()[-1])
    values = result.pop("metrics")
    if args.trace:
        values.update(import_breakdown(env))
    else:
        result["setup_samples_s"] = setup_seconds(env)
        values["setup_s"] = statistics.median(c for _, c in result["setup_samples_s"])
    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError(f"workload {name} reported no {sorted(missing)}")
    result["metrics"] = {key: {"value": values[key], "unit": unit}
                         for key, unit in declared.items()}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nonshare", "__init__.py")):
        print("perfbench: run from the root of a nonshare checkout (src/nonshare is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = bench_env(root)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args, env, declared, out_dir)
        except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
            stderr = getattr(exc, "stderr", None)
            print(f"perfbench: workload {name} failed: {exc}\n{stderr or ''}", file=sys.stderr)
            return 1
        for key, metric in results[name]["metrics"].items():
            print(f"{name:>9}  {key:<30} {metric['value']:>14.6g} {metric['unit']}")
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
