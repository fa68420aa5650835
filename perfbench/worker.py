"""One workload process: set-up, timed passes, then the independent checks.

Started by run.py with a clean environment (one BLAS thread, no
HELLYFIT_THREADS).  Prints one JSON object as its last line of output.
Set-up time runs from the first statement of this file, so it includes
importing numpy and hellyfit.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ.pop("HELLYFIT_THREADS", None)
sys.path.insert(0, SRC)


class Modules:
    """hellyfit's modules, looked up at call time so traced wrappers are seen."""

    def __init__(self):
        import hellyfit
        from hellyfit import cli, geometry, jsonio, lab, lp, nets, solver

        path = os.path.realpath(hellyfit.__file__)
        if not path.startswith(os.path.realpath(SRC) + os.sep):
            raise ImportError(f"hellyfit imported from {path}, not from {SRC}")
        self.cli, self.geometry, self.jsonio, self.lab = cli, geometry, jsonio, lab
        self.lp, self.nets, self.solver = lp, nets, solver


def _setup(name, seed, tracer):
    import numpy  # noqa: F401  (set-up pays the import, as a user does)
    import workloads

    hf = Modules()
    if tracer is not None:
        import spans
        spans.install(tracer)
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    return workloads, workloads.WORKLOADS[name](hf, seed, workdir), workdir


def _passes(ops, record, count, tracer):
    """Run the operation list `count` times; returns times, records, errors.

    Each output is turned into its record right after the operation, outside
    the timed span, because the CLI's output file is rewritten every pass.
    """
    times = [[0.0] * len(ops) for _ in range(count)]
    records = [[None] * len(ops) for _ in range(count)]
    errors = []
    clock = time.perf_counter
    for r in range(count):
        for i, op in enumerate(ops):
            try:
                t = clock()
                out = op() if tracer is None else tracer.op(op)
                times[r][i] = clock() - t
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                times[r][i] = clock() - t
                errors.append((r, i, traceback.format_exc(limit=3)))
            else:
                records[r][i] = record(i, out)
    return times, records, errors


def _check(name, seed, wl, records):
    """Independent checks of the first pass; later passes must repeat it exactly."""
    import numpy as np

    import checks
    from workloads import LAB_N, LAB_SAMPLES

    problems = []
    first = records[0]
    for i, rec in enumerate(first):
        if rec is None:
            continue
        if name == "msw_tangent":
            U, b = wl.families[i]
            found = checks.check_msw(wl.V, wl.net_rotations, U, b, rec)
        elif name == "fit_cli":
            (V, eps), (U, b) = wl.bodies[i], wl.containers[i]
            found = checks.check_fit(V, eps, U, b, rec)
        else:
            samples = LAB_SAMPLES[i]
            found = checks.check_verdict(rec, samples, LAB_N)
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7, i]))
            subsets = checks.bounded_subsets(wl.family(i)[1].contact_points, LAB_N, rng)
            for V, U, b, pl, capped in wl.inflations(i, subsets):
                found += checks.check_inflation(V, U, b, pl, capped, rec.get("delta"))
        problems += [f"{name} op {i}: {p}" for p in found]
    for r, recs in enumerate(records[1:], start=2):
        for i, rec in enumerate(recs):
            if rec is not None and first[i] is not None and rec != first[i]:
                problems.append(f"{name} op {i}: pass {r} output differs from pass 1")
    return problems


def run(args):
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    workloads, wl, workdir = _setup(args.workload, args.seed, tracer)
    setup_s = time.perf_counter() - T0
    try:
        if args.setup_only:
            return {"setup_s": setup_s}
        first_timed = len(tracer.spans) if tracer else 0
        ops = wl.ops()
        count = max(1, int(args.seconds // workloads.PASS_S))
        times, records, errors = _passes(ops, wl.record, count, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the checks call traced functions again; their spans are not the run's
        timed_spans = tracer.spans[:] if tracer else []
        problems = _check(args.workload, args.seed, wl, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "attempted": count * len(ops),
        "failed": len(errors),
        "correct": not problems,
        "problems": problems,
        "errors": [e for _, _, e in errors],
        "passes": count,
        "setup_s": setup_s,
        # a pass's time: per operation, the median over passes, summed
        "run_s": sum(statistics.median(col) for col in zip(*times)),
        "op_p50_s": statistics.median(t for row in times for t in row),
        "peak_rss_mb": peak_rss_mb,
        "op_times": times,
    }
    if tracer is not None:
        metrics, coverage = spans.per_layer(timed_spans, first_timed, count)
        result.update(per_layer=metrics, coverage=coverage)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": count,
                       "first_timed_span": first_timed, "coverage": coverage,
                       "run_s": result["run_s"], "op_p50_s": result["op_p50_s"],
                       "per_layer": metrics,
                       "spans_columns": ["name", "start", "end", "parent", "info"],
                       "spans": timed_spans}, fh)
        result["trace_file"] = os.path.relpath(path, ROOT)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
