"""hellyfit benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload msw_tangent --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; hellyfit is imported from its
`src/`.  The last line of output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end with `--trace 0`, per-layer
with `--trace 1`).  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "hellyfit")
WORKLOADS = ("msw_tangent", "fit_cli", "lab_demo")
SETUP_SAMPLES = 3     # fresh processes whose set-up time gives the median
CHILD_TIMEOUT_S = 170


def _env():
    env = dict(os.environ)
    env.pop("HELLYFIT_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(script, argv):
    """Run one worker process to its end; its last output line is JSON."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), *argv],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{script} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that the checks catch a wrong beta, placement and verdict")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.exit(f"no hellyfit sources at {os.path.relpath(PACKAGE)}; run from a checkout")
    # byte-compile up front so no timed process pays for it
    compileall.compile_dir(PACKAGE, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    if args.self_test:
        result = _child("selftest.py", [])
        print(json.dumps(result))
        sys.exit(0 if result["caught_all"] else 1)
    if args.workload is None:
        parser.error("--workload is required")

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        setups = [_child("worker.py", argv + ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    res = _child("worker.py", argv)
    for line in res["problems"] + res["errors"]:
        sys.stderr.write(line.rstrip() + "\n")
    if args.trace:
        metrics = res["per_layer"]
        sys.stderr.write(f"trace written to {res['trace_file']}; top-level spans "
                         f"cover {100 * res['coverage']:.2f} % of operation time\n")
    else:
        setups.append(res["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": res["run_s"], "unit": "s"},
            "op_p50_s": {"value": res["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
