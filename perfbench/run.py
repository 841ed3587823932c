"""Run one benchmark workload against the mmtm sources in this checkout.

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload, each in its own process. Results,
span files and per-layer tables are written to ``perfbench/out/``.
"""

import os

# One BLAS thread, set before numpy is first imported: with the default
# thread pool, repeated runs on a 2-CPU machine spread far more widely.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("train_short", "train_long", "eval_decode")


def import_program():
    """Import mmtm from this checkout's sources and nowhere else."""
    if not (SRC / "mmtm" / "__init__.py").is_file():
        sys.exit(f"error: no mmtm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mmtm

    if Path(mmtm.__file__).resolve().parent != SRC / "mmtm":
        sys.exit(f"error: mmtm was imported from {mmtm.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "machine": platform.machine()}


def run_all(args) -> int:
    """Every workload in its own fresh process; returns the worst exit code."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        if proc.returncode != 0:
            merged["correct"] = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(name, json.dumps(result), flush=True)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: every phase and check, no steady timing")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()
    if args.workload == "all":
        return run_all(args)

    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.tiny, work, OUT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in result.pop("failures"):
        print(f"check failed: {failure}", file=sys.stderr)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": env, **result}
    suffix = "_tiny" if args.tiny else ""
    (OUT / f"result_{args.workload}_trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("environment", json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
