"""Acceptance battery: nine end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they happen; without -s they still appear for any failing check.  Each
check states its tolerance and time budget inline.
"""

import math
import time

import numpy as np
import pytest
from _oracles import lp_vertex_oracle

from hellyfit.geometry import (
    DegenerateGeometryError,
    HPolytope,
    Rotation,
    VPolytope,
    convex_hull_2d,
    regular_polygon,
    unit_square,
)
from hellyfit.lab import CapBody, SearchFailure, avoid_rotation, lower_bound_demo
from hellyfit.lp import OPTIMAL, LpInstance, chebyshev_inradius, seidel_lp
from hellyfit.nets import (
    SUFFICIENT_BOUND,
    RotationNet,
    build_net_2d,
    max_angle_2d,
    verify_net,
)
from hellyfit.solver import alpha_reference, beta_brute, beta_direct, beta_msw

AGREE_TOL = 1e-9
SANDWICH_SLACK = 1e-6
BASIS_TOL = 1e-9
SLOPE_GATE = 1.2
KNOWN_TOL = 1e-9
INRADIUS_TOL = 1e-12
LP_TOL = 1e-9


def verdict(number, name, ok, detail=""):
    line = f"[acceptance] criterion {number} ({name}): " \
           f"{'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared instance generators


def random_polygon(rng, points):
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(points, 2))
        try:
            idx = convex_hull_2d(pts)
        except DegenerateGeometryError:
            continue
        if len(idx) >= 3:
            return VPolytope(pts[idx])


def random_container(rng, extra):
    """Bounded container: a box plus `extra` random half-planes around 0."""
    side = float(rng.uniform(1.0, 3.0))
    normals = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
               np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    offsets = [side] * 4
    for a, b in zip(rng.uniform(0.0, 2.0 * math.pi, extra),
                    rng.uniform(0.5, 2.0, extra)):
        normals.append(np.array([math.cos(a), math.sin(a)]))
        offsets.append(float(b))
    return HPolytope(np.stack(normals), np.array(offsets))


def small_net(rng, t):
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, t))
    rots = tuple(Rotation.from_angle(float(a)) for a in angles)
    return RotationNet(rots, 0.5, SUFFICIENT_BOUND)


@pytest.fixture(scope="module")
def small_instances():
    """100 bounded planar instances with n <= 12 half-planes and t <= 6."""
    rng = np.random.default_rng(20260822)
    runs = []
    start = time.perf_counter()
    for _ in range(100):
        K = random_polygon(rng, int(rng.integers(3, 7)))
        net = small_net(rng, int(rng.integers(1, 7)))
        P = random_container(rng, int(rng.integers(1, 9)))
        seed = int(rng.integers(2 ** 31))
        results = {
            "brute": beta_brute(K, net, P),
            "msw": beta_msw(K, net, P, seed=seed),
            "direct": beta_direct(K, net, P, seed=seed),
        }
        runs.append((K, net, P, results))
    return runs, time.perf_counter() - start


SANDWICH_EPS = 0.1
FINE_EPS = 0.005


@pytest.fixture(scope="module")
def sandwich_instances():
    """20 instances over four body shapes, coarse fit plus fine reference."""
    shapes = [
        unit_square(),
        regular_polygon(3),
        regular_polygon(5, radius=0.8, phase=0.3),
        random_polygon(np.random.default_rng(123), 6),
    ]
    nets = {i: build_net_2d(K, SANDWICH_EPS) for i, K in enumerate(shapes)}
    rng = np.random.default_rng(777)
    runs = []
    start = time.perf_counter()
    for case in range(20):
        K = shapes[case % len(shapes)]
        net = nets[case % len(shapes)]
        P = random_container(rng, int(rng.integers(2, 9)))
        res = beta_direct(K, net, P, seed=int(rng.integers(2 ** 31)))
        ref = alpha_reference(K, P, FINE_EPS, seed=7)
        runs.append((K, net, P, res, ref))
    return runs, time.perf_counter() - start


# ---------------------------------------------------------------------------
# the nine criteria


def test_criterion_1_method_agreement(small_instances):
    runs, elapsed = small_instances
    worst = 0.0
    for _, _, _, results in runs:
        betas = [results[m].beta for m in ("brute", "msw", "direct")]
        worst = max(worst, max(betas) - min(betas))
    ok = worst <= AGREE_TOL and elapsed < 60.0
    verdict(1, "method agreement", ok,
            f"100 instances, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_approximation_sandwich(sandwich_instances):
    runs, elapsed = sandwich_instances
    worst_low, worst_high = 0.0, 0.0
    for _, _, _, res, ref in runs:
        worst_low = max(worst_low, (1.0 - SANDWICH_EPS) * ref - res.beta)
        worst_high = max(worst_high, res.beta - ref / (1.0 - FINE_EPS))
    ok = (worst_low <= SANDWICH_SLACK and worst_high <= SANDWICH_SLACK
          and elapsed < 300.0)
    verdict(2, "approximation sandwich", ok,
            f"20 instances, slack used {worst_low:.2e}/{worst_high:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_3_linear_scaling():
    K = unit_square()
    # t = 4 net of one rotation class: one insertion loop per fit, whose
    # rounds and violation-test rows are the work counted.
    net = build_net_2d(K, 1.0 - 1.0 / math.sqrt(2.0))
    sizes = [10 ** 3, 10 ** 4, 10 ** 5]
    counts, walls = [], []
    start = time.perf_counter()
    for n in sizes:
        rng = np.random.default_rng(np.random.SeedSequence([5150, n]))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        P = HPolytope(np.stack([np.cos(angles), np.sin(angles)], axis=1),
                      np.ones(n))
        t0 = time.perf_counter()
        res = beta_msw(K, net, P, seed=11)
        walls.append(time.perf_counter() - t0)
        counts.append(res.stats.violation_tests + res.stats.lp_calls)
    elapsed = time.perf_counter() - start
    slope = float(np.polyfit(np.log(sizes), np.log(counts), 1)[0])
    wall_slope = float(np.polyfit(np.log(sizes), np.log(walls), 1)[0])
    ok = slope <= SLOPE_GATE and elapsed < 600.0
    verdict(3, "linear scaling", ok,
            f"work slope {slope:.3f} (gate {SLOPE_GATE}), wall slope "
            f"{wall_slope:.2f} reported ungated, {elapsed:.1f}s")


def test_criterion_4_basis_contract(small_instances, sandwich_instances):
    checked, worst_gap, worst_size = 0, 0.0, True
    for K, net, P, results in small_instances[0]:
        for res in results.values():
            cap = len(net) * (K.dim + 1)
            worst_size = worst_size and len(res.basis) <= cap
            again = beta_direct(K, net, P.take(res.basis), seed=5).beta
            worst_gap = max(worst_gap,
                            abs(again - res.beta) / max(1.0, abs(res.beta)))
            checked += 1
    for K, net, P, res, _ in sandwich_instances[0]:
        cap = len(net) * (K.dim + 1)
        worst_size = worst_size and len(res.basis) <= cap
        again = beta_direct(K, net, P.take(res.basis), seed=5).beta
        worst_gap = max(worst_gap,
                        abs(again - res.beta) / max(1.0, abs(res.beta)))
        checked += 1
    ok = worst_size and worst_gap <= BASIS_TOL
    verdict(4, "basis contract", ok,
            f"{checked} results, size bound {'held' if worst_size else 'broke'},"
            f" worst re-solve gap {worst_gap:.2e}")


def test_criterion_5_net_soundness():
    eps_square = 1.0 - 1.0 / math.sqrt(2.0)
    square = unit_square()
    net_square = build_net_2d(square, eps_square)
    alpha = max_angle_2d(square, eps_square)
    ok_square = (len(net_square) == 4
                 and abs(alpha - math.pi / 4.0) <= 1e-6)
    reports = [verify_net(net_square, square, trials=100, seed=1)]
    hexagon = random_polygon(np.random.default_rng(123), 6)
    reports.append(verify_net(build_net_2d(hexagon, 0.1), hexagon,
                              trials=100, seed=2))
    gon64 = regular_polygon(64)
    reports.append(verify_net(build_net_2d(gon64, 0.05), gon64,
                              trials=100, seed=3))
    ok = ok_square and all(r.ok for r in reports)
    verdict(5, "net soundness", ok,
            f"square t={len(net_square)} alpha={alpha:.8f}, trial failures "
            f"{[r.failures for r in reports]}")


def test_criterion_6_known_values():
    square = unit_square()
    box2 = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0],
                               [0.0, 1.0], [0.0, -1.0]]),
                     np.array([2.0, 0.0, 2.0, 0.0]))
    beta_two = beta_direct(square, build_net_2d(square, 0.3), box2, seed=0).beta
    tilted = RotationNet((Rotation.from_angle(math.pi / 4.0),), 0.5, SUFFICIENT_BOUND)
    box1 = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0],
                               [0.0, 1.0], [0.0, -1.0]]),
                     np.array([1.0, 0.0, 1.0, 0.0]))
    beta_tilt = beta_direct(square, tilted, box1, seed=0).beta
    inradius = chebyshev_inradius(box1).radius
    ok = (abs(beta_two - 2.0) <= KNOWN_TOL
          and abs(beta_tilt - math.sqrt(2.0) / 2.0) <= KNOWN_TOL
          and abs(inradius - 0.5) <= INRADIUS_TOL)
    verdict(6, "known-value fits", ok,
            f"beta {beta_two:.12f} vs 2, {beta_tilt:.12f} vs sqrt(2)/2, "
            f"inradius {inradius:.14f} vs 0.5")


def test_criterion_7_lower_bound_demo():
    details, ok = [], True
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        out = lower_bound_demo(n, 4 * n, seed=0)
        took = time.perf_counter() - t0
        good = (out["verdict"] == "pass" and out["delta"] > 0.0
                and out["full_family_beta"] <= 1.0 + 1e-3 and took < 120.0)
        ok = ok and good
        details.append(f"n={n} delta={out['delta']:.2e} "
                       f"beta={out['full_family_beta']:.6f} {took:.0f}s")
    verdict(7, "few constraints never pin the scale", ok, "; ".join(details))


def test_criterion_8_single_try_avoidance_rate():
    body = CapBody.of_width(0.0, 1.5 * math.pi, m=128)
    mu = body.retained_measure
    n = 3
    wins = 0
    for s in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence([88, s]))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        try:
            avoid_rotation(body, pts, max_tries=1,
                           seed=int(rng.integers(2 ** 31)))
            wins += 1
        except SearchFailure:
            pass
    freq = wins / 1000.0
    bound = 1.0 - n * mu - 0.05
    ok = freq >= bound
    verdict(8, "single-try avoidance rate", ok,
            f"frequency {freq:.3f} >= union bound {bound:.3f} "
            f"(mu={mu}, n={n})")


def _random_lp(rng, max_rows=12, max_vars=3):
    d = int(rng.integers(1, max_vars + 1))
    n = int(rng.integers(0, max_rows + 1))
    A = rng.normal(size=(n, d))
    kind = rng.integers(0, 3)
    if kind == 0:
        b = np.abs(rng.normal(size=n)) + 0.1
    elif kind == 1:
        b = rng.normal(size=n)
    else:
        b = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0], size=n)
    return LpInstance(A, b, rng.normal(size=d))


def test_criterion_9_lp_oracle_equivalence():
    rng = np.random.default_rng(424242)
    mismatches, worst = 0, 0.0
    for trial in range(500):
        inst = _random_lp(rng)
        ref_status, ref_value = lp_vertex_oracle(inst)
        res = seidel_lp(inst, seed=trial)
        if res.status != ref_status:
            mismatches += 1
        elif ref_status == OPTIMAL:
            worst = max(worst, abs(res.value - ref_value)
                        / max(1.0, abs(ref_value)))
    ok = mismatches == 0 and worst <= LP_TOL
    verdict(9, "LP oracle equivalence", ok,
            f"500 instances, {mismatches} status mismatches, worst value gap "
            f"{worst:.2e}")
