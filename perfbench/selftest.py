"""Feed the checks real outputs and deliberately wrong ones.

For each workload the first operation runs once at seed 0; its output must
pass, and a perturbed beta, a shifted placement and (for the demo) a `fail`
verdict must each be caught.  Prints one JSON object; `caught_all` is true
when every real output passed and every wrong one was flagged.
"""

import copy
import json
import os
import shutil
import sys

import worker  # noqa: F401  (sets the thread caps and the import path first)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _shift(pl, dx=0.05):
    pl = copy.deepcopy(pl)
    pl["translation"][0] += dx
    return pl


def main():
    hf = worker.Modules()
    workdir = os.path.join(worker.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cases = {}
    try:
        msw = workloads.MswTangent(hf, 0, workdir)
        rec = msw.record(0, msw.ops()[0]())
        U, b = msw.families[0]

        def check_msw(r):
            return checks.check_msw(msw.V, msw.net_rotations, U, b, r)
        cases["msw_tangent/real"] = (check_msw(rec), False)
        wrong = copy.deepcopy(rec)
        wrong["beta"] *= 1.0 + 1e-4
        wrong["placement"]["scale"] = wrong["beta"]
        cases["msw_tangent/beta"] = (check_msw(wrong), True)
        wrong = dict(rec, placement=_shift(rec["placement"]))
        cases["msw_tangent/placement"] = (check_msw(wrong), True)

        fit = workloads.FitCli(hf, 0, workdir)
        rec = fit.record(0, fit.ops()[0]())
        (V, eps), (U, b) = fit.bodies[0], fit.containers[0]

        def check_fit(r):
            return checks.check_fit(V, eps, U, b, r)
        cases["fit_cli/real"] = (check_fit(rec), False)
        wrong = copy.deepcopy(rec)
        wrong["doc"]["beta"] *= 1.0 + 1e-4
        wrong["doc"]["placement"]["scale"] = wrong["doc"]["beta"]
        cases["fit_cli/beta"] = (check_fit(wrong), True)
        wrong = copy.deepcopy(rec)
        wrong["doc"]["placement"] = _shift(rec["doc"]["placement"])
        cases["fit_cli/placement"] = (check_fit(wrong), True)
        cases["fit_cli/exit"] = (check_fit(dict(rec, exit=2)), True)

        lab = workloads.LabDemo(hf, 0, workdir)
        rec = lab.record(0, lab.ops()[0]())
        samples = workloads.LAB_SAMPLES[0]
        cases["lab_demo/real"] = (checks.check_verdict(rec, samples, workloads.LAB_N), False)
        cases["lab_demo/verdict"] = (
            checks.check_verdict(dict(rec, verdict="fail"), samples, workloads.LAB_N), True)
        cases["lab_demo/full_beta"] = (
            checks.check_verdict(dict(rec, full_family_beta=1.01), samples, workloads.LAB_N),
            True)
        rng = np.random.default_rng(0)
        subsets = checks.bounded_subsets(lab.family(0)[1].contact_points, workloads.LAB_N, rng)
        (V, U, b, pl, capped), = lab.inflations(0, subsets[:1])
        delta = rec["delta"]
        cases["lab_demo/inflation_real"] = (checks.check_inflation(V, U, b, pl, capped, delta),
                                            False)
        wrong = dict(pl, scale=pl["scale"] * (1.0 + 1e-4))
        cases["lab_demo/inflation_beta"] = (
            checks.check_inflation(V, U, b, wrong, capped, delta), True)
        cases["lab_demo/inflation_placement"] = (
            checks.check_inflation(V, U, b, _shift(pl), capped, delta), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {name: {"should_fail": bad, "problems": found}
              for name, (found, bad) in cases.items()}
    caught_all = all(bool(found) == bad for found, bad in cases.values())
    print(json.dumps({"caught_all": caught_all, "cases": report}))


if __name__ == "__main__":
    sys.exit(main())
