"""nsflow benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ball --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # all four, each in its own process

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  Prints every metric by name with its
unit, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report (environment, set-up
samples, failure reasons) goes to ``.perfbench_out/`` at the repository root,
and traced runs also write their spans there.
"""

import os

# One single-threaded process per workload: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("ball", "scaling", "oracle", "trajectory")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def print_metrics(metrics, attempted, failed) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    print(f"{'ops attempted':<42} {attempted:>14d}")
    print(f"{'ops failed':<42} {failed:>14d}")


def run_one(args) -> int:
    if not (SRC / "nsflow" / "__init__.py").is_file():
        print(f"error: no nsflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nsflow

    if not Path(nsflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: nsflow imported from {nsflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.trace:
            result = harness.run_traced(args.workload, args.seed, args.seconds, tmp, str(OUT_DIR))
        else:
            result = harness.run_untraced(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": harness.environment(), **result,
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, default=list) + "\n", encoding="utf-8")
    print_metrics(result["metrics"], result["attempted"], result["failed"])
    print(f"report: {path}")
    print(result_line(result["failed"] == 0, result["attempted"], result["failed"], result["metrics"]))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; metrics prefixed by workload name."""
    metrics = {}
    attempted = failed = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        for k, v in last["metrics"].items():
            metrics[f"{name}.{k}"] = (v["value"], v["unit"])
    print_metrics(metrics, attempted, failed)
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
