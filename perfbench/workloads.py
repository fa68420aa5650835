"""The three workloads: seeded inputs, one pass of operations, and records.

Each workload is built from `--seed` alone.  `setup` makes the inputs and
pays the one-time work a library user pays once per body; `ops` lists the
operations of one pass, each a call into hellyfit's public API; `record`
turns an operation's output into plain data, the same on every pass.  The
program sees only the generated arrays and files, never the seed.
"""

import json
import math
import os

import numpy as np

# a pass takes about PASS_S seconds on the reference machine (README); a run
# makes max(1, seconds // PASS_S) passes, so every run of a workload does the
# same work whatever the machine's speed
PASS_S = 30.0

# family sizes of one pass.  Many distinct inputs per pass average out the
# run-to-run spread of the randomized solver; the counts put the median
# operation in the middle of the 4000 band.
MSW_SIZES = (1000,) * 7 + (4000,) * 12 + (12000,) * 5 + (30000,) * 2
MSW_EPS = 1.0 - 1.0 / math.sqrt(2.0)       # t = 4 square net, as `hellyfit bench`

# (vertices, epsilon, extra half-planes, jitter).  Triangles at 0.2 are the
# steadiest body (about 5 % from seed to seed), so twelve of them hold the
# median operation; cheaper and dearer bodies sit on either side.  The last
# two bodies are regular 12-gons, near a disk: at 0.2 they have full
# rotational slack, so their nets have t = 1 and max_angle_2d scans the whole
# turn.  Jitter is kept off them because the scan's cost swings by 2x with
# small perturbations of such a body.
FIT_BODIES = (((4, 0.1, 30, 0.1),) * 2 + ((3, 0.2, 100, 0.1),) * 12
              + ((5, 0.1, 100, 0.1), (6, 0.1, 300, 0.1), (3, 0.1, 400, 0.1))
              + ((12, 0.2, 150, 0.0),) * 2)
FIT_BOX = 3.0

LAB_N = 3
LAB_SAMPLES = (9, 9, 10, 9, 9, 9, 10, 9)


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


def _seed(seed, *key):
    return int(np.random.SeedSequence([int(seed), *key]).generate_state(1)[0])


def tangent_family(seed, slot, n):
    """n unit normals at uniform angles; every line is tangent to the unit circle."""
    angles = _rng(seed, 1, slot).uniform(0.0, 2.0 * math.pi, size=n)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1), np.ones(n)


def jittered_polygon(seed, slot, m, jitter):
    """m-gon at a random phase and size, its vertices randomly perturbed.

    Each angle moves by up to `jitter` of the spacing and each radius by up
    to a fifth of that; jitter 0 gives a regular polygon.
    """
    rng = _rng(seed, 4, slot)
    step = 2.0 * math.pi / m
    angles = (rng.uniform(0.0, step) + step * np.arange(m)
              + rng.uniform(-jitter, jitter, m) * step)
    radii = rng.uniform(0.8, 1.2) * (1.0 + rng.uniform(-0.2, 0.2, m) * jitter)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


def boxed_container(seed, slot, k):
    """The box [-3, 3]^2 plus k half-planes at distance 1.2 to 2.5 from the origin."""
    rng = _rng(seed, 5, slot)
    angles = rng.uniform(0.0, 2.0 * math.pi, k)
    U = np.vstack([[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                   np.stack([np.cos(angles), np.sin(angles)], axis=1)])
    b = np.concatenate([np.full(4, FIT_BOX), rng.uniform(1.2, 2.5, k)])
    return U, b


def placement_record(placement):
    if placement is None:
        return None
    return {"translation": [float(x) for x in placement.translation],
            "scale": float(placement.scale),
            "rotation": [float(x) for x in placement.rotation.matrix.reshape(-1)]}


class MswTangent:
    """`beta_msw` on the square against tangent families of 1e3 to 3e4 lines."""

    def __init__(self, hf, seed, workdir):
        self.hf = hf
        self.V = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        self.K = hf.geometry.VPolytope(self.V)
        self.net = hf.nets.build_net_2d(self.K, MSW_EPS)
        self.families = [tangent_family(seed, i, n) for i, n in enumerate(MSW_SIZES)]
        self.polys = [hf.geometry.HPolytope(U, b) for U, b in self.families]
        self.solver_seeds = [_seed(seed, 2, i) for i in range(len(MSW_SIZES))]
        self.net_rotations = [r.matrix for r in self.net.rotations]

    def ops(self):
        solver = self.hf.solver
        return [lambda P=P, s=s: solver.beta_msw(self.K, self.net, P, seed=s)
                for P, s in zip(self.polys, self.solver_seeds)]

    def record(self, i, out):
        return {"beta": float(out.beta), "placement": placement_record(out.placement),
                "basis": [int(j) for j in out.basis]}


class FitCli:
    """`hellyfit fit` in-process on seeded body and container files."""

    def __init__(self, hf, seed, workdir):
        self.hf = hf
        self.bodies, self.containers, self.argvs, self.outs = [], [], [], []
        for i, (m, eps, k, jitter) in enumerate(FIT_BODIES):
            V = jittered_polygon(seed, i, m, jitter)
            U, b = boxed_container(seed, i, k)
            body = os.path.join(workdir, f"body{i}.json")
            box = os.path.join(workdir, f"container{i}.json")
            out = os.path.join(workdir, f"fit{i}.json")
            with open(body, "w", encoding="utf-8") as fh:
                json.dump({"dim": 2, "vertices": V.tolist()}, fh)
            with open(box, "w", encoding="utf-8") as fh:
                json.dump({"dim": 2, "halfspaces": [
                    {"normal": u.tolist(), "offset": float(o)} for u, o in zip(U, b)]}, fh)
            self.bodies.append((V, eps))
            self.containers.append((U, b))
            self.outs.append(out)
            self.argvs.append(["fit", body, box, "--epsilon", repr(eps),
                               "--seed", str(_seed(seed, 6, i)), "--out", out])

    def ops(self):
        return [lambda argv=argv: self._fit(argv) for argv in self.argvs]

    def _fit(self, argv):
        code = self.hf.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"hellyfit {' '.join(argv)} exited {code}")
        return code

    def record(self, i, code):
        try:
            with open(self.outs[i], encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(self.outs[i])
        except (OSError, ValueError) as exc:
            return {"exit": code, "error": repr(exc)}
        doc.get("stats", {}).pop("wall_time_s", None)
        return {"exit": code, "doc": doc}


class LabDemo:
    """`lower_bound_demo(3, samples, seed)` over a seeded list of demo seeds."""

    def __init__(self, hf, seed, workdir):
        self.hf = hf
        self.demo_seeds = [_seed(seed, 3, i) for i in range(len(LAB_SAMPLES))]
        # one untimed demo at a seed outside the list (uint32 seeds never reach
        # 2**32) builds and caches the cap body's fine net, as a user pays once
        hf.lab.lower_bound_demo(LAB_N, LAB_N, seed=2 ** 32 + int(seed))

    def ops(self):
        lab = self.hf.lab
        return [lambda n=n, s=s: lab.lower_bound_demo(LAB_N, n, seed=s)
                for n, s in zip(LAB_SAMPLES, self.demo_seeds)]

    def record(self, i, out):
        return dict(out)

    def family(self, i):
        """Demo i's body and tangent family, rebuilt as `lower_bound_demo` documents.

        The demo draws a seeded phase and spaces the contacts evenly; the
        search seed of each subset comes from the demo seed and the subset.
        """
        lab = self.hf.lab
        samples = LAB_SAMPLES[i]
        K = lab.cap_body(LAB_N, margin=math.pi / (2 * LAB_N))
        phase = float(_rng(self.demo_seeds[i], 0).uniform(0.0, 2.0 * math.pi))
        return K, lab.TangentFamily.at_angles(
            phase + 2.0 * math.pi * np.arange(samples) / samples)

    def inflations(self, i, subsets):
        """Re-run the public inflation_search on some of demo i's subsets."""
        K, family = self.family(i)
        found = []
        for subset in subsets:
            sub = family.take(subset)
            res = self.hf.lab.inflation_search(
                K, sub, seed=_seed(self.demo_seeds[i], 1, *subset))
            found.append((K.vertices, sub.contact_points, np.ones(LAB_N),
                          placement_record(res.placement), res.capped))
        return found


WORKLOADS = {"msw_tangent": MswTangent, "fit_cli": FitCli, "lab_demo": LabDemo}
