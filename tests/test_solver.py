import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellyfit.geometry import (
    DegenerateGeometryError,
    HPolytope,
    Rotation,
    VPolytope,
    box_polytope,
    convex_hull_2d,
    random_rotation,
    regular_polygon,
    unit_square,
)
from hellyfit import lp, solver
from hellyfit.cli import _bench_instance
from hellyfit.lp import FEAS_TOL, beta_fixed_rotation, canonical_placement, scale_dual
from hellyfit.nets import (
    EXACT_2D,
    SUFFICIENT_BOUND,
    NetTooLargeError,
    RotationNet,
    _ring,
    build_net_2d,
    build_net_sufficient,
)
from hellyfit.solver import (
    alpha_reference,
    beta_brute,
    beta_direct,
    beta_msw,
    extract_basis,
)

from _oracles import full_sweep_fit, highs_scale, square_fit_scale

EPS_SQUARE = 1.0 - 1.0 / math.sqrt(2.0)


def spin_net(angles, epsilon=0.3):
    rots = tuple(Rotation.from_angle(float(a)) for a in angles)
    return RotationNet(rots, epsilon, SUFFICIENT_BOUND)


def uniform_net(t, epsilon=0.3):
    return spin_net([2.0 * math.pi * k / t for k in range(1, t + 1)], epsilon)


def tangent_family(n, seed):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    U = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return HPolytope(U, np.ones(n))


def box(lo, hi):
    return HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                     np.array([hi, -lo, hi, -lo], dtype=float))


# ---------------------------------------------------------------------------
# beta_direct


def test_square_in_triple_box():
    r = beta_direct(unit_square(), spin_net([0.0]), box(0.0, 3.0))
    assert abs(r.beta - 3.0) <= 1e-9
    assert r.placement.scale == r.beta
    assert r.method == "direct"


def test_square_in_double_box_is_exactly_two():
    # the planar net ends on the exact identity, so the square in [0, 2]^2
    # gets scale 2.0 to the last bit from either solver
    K = unit_square()
    net = build_net_2d(K, 0.1)
    for solve in (beta_direct, beta_msw):
        assert solve(K, net, box(0.0, 2.0), seed=0).beta == 2.0


def test_square_in_square_right_angles():
    net = spin_net([k * math.pi / 2.0 for k in range(4)])
    r = beta_direct(unit_square(), net, unit_square().hull_halfspaces())
    assert abs(r.beta - 1.0) <= 1e-9
    # exact four-fold tie: the lowest rotation index wins
    assert r.rotation_index == 0


def test_spacing_pi16_matches_closed_form():
    net = spin_net([k * math.pi / 16.0 for k in range(32)])
    r = beta_direct(unit_square(), net, unit_square().hull_halfspaces())
    ref = max(square_fit_scale(k * math.pi / 16.0) for k in range(32))
    assert abs(r.beta - ref) <= 1e-9


def test_placement_feasible_for_every_halfspace():
    K = regular_polygon(3, 1.0)
    net = uniform_net(5)
    for seed in range(6):
        P = tangent_family(25, seed)
        r = beta_direct(K, net, P, seed=seed)
        img = r.placement.apply_points(K.vertices)
        depth = (P.normals @ img.T).max(axis=1) - P.offsets
        assert depth.max() <= 1e-8


def test_beta_seed_independent_and_placement_canonical():
    K = regular_polygon(5, 1.0, phase=0.3)
    net = uniform_net(4)
    P = tangent_family(20, 11)
    runs = [beta_direct(K, net, P, seed=s) for s in (0, 1, 12345)]
    for r in runs[1:]:
        assert abs(r.beta - runs[0].beta) <= 1e-9
        assert np.allclose(r.placement.translation, runs[0].placement.translation,
                           atol=1e-8)
        assert r.rotation_index == runs[0].rotation_index
    # 4 000 lines tangent to the unit circle, where nearly parallel rows
    # are tight at the square's lexicographic vertex: a canonical step
    # that began from the rows the winner's loop held let the translation
    # move by up to 2.8e-7 between solver seeds here
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    net = build_net_2d(K, EPS_SQUARE)
    for slot in (12, 17, 18):
        ang = np.random.default_rng(np.random.SeedSequence([9301, 1, slot])).uniform(
            0.0, 2.0 * math.pi, 4000)
        P = HPolytope(np.stack([np.cos(ang), np.sin(ang)], axis=1), np.ones(4000))
        translations = [fit(K, net, P, seed=s).placement.translation
                        for fit in (beta_msw, beta_direct) for s in range(12)]
        assert np.ptp(translations, axis=0).max() <= 1e-9


def test_direct_placement_is_the_canonical_fit_at_the_winning_rotation():
    # beta_direct keeps the sweep's solve at the winning rotation and only
    # canonicalizes it, so it must equal the canonical single-rotation fit
    # with the seed the sweep gave that rotation, bit for bit
    cases = [(regular_polygon(5, 1.0, phase=0.3), uniform_net(4), tangent_family(20, 11), 0),
             (regular_polygon(3, 1.0), uniform_net(7), tangent_family(18, 5), 2),
             (unit_square(), uniform_net(4), tangent_family(300, 3), 987654321),
             (unit_square(), uniform_net(4), box(0.0, 3.0), 5)]
    for K, net, P, seed in cases:
        r = beta_direct(K, net, P, seed=seed)
        i = r.rotation_index
        ref = beta_fixed_rotation(K, net.rotations[i], P,
                                  seed=solver._rotation_seed(seed, i))
        placement = canonical_placement(K, ref.placement, P)[0]
        assert r.beta == ref.value
        assert r.placement.scale == placement.scale
        assert np.array_equal(r.placement.translation, placement.translation)
        assert np.array_equal(r.placement.rotation.matrix, net.matrices[i])


def test_direct_does_not_call_a_container_holding_the_disk_empty():
    # 4 000 lines tangent to the unit circle: after an elimination, a
    # reduced row with a small coefficient set the lower bound 1.1e-5 above
    # the upper one while the upper bound's point violated it by 5.7e-10,
    # and the one-variable rule answered "infeasible", so beta was 0
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    net = build_net_2d(K, EPS_SQUARE)
    ang = np.random.default_rng(np.random.SeedSequence([9301, 1, 9])).uniform(
        0.0, 2.0 * math.pi, 4000)
    P = HPolytope(np.stack([np.cos(ang), np.sin(ang)], axis=1), np.ones(4000))
    r = beta_direct(K, net, P, seed=2834111952)
    assert r.stats.note == ""
    assert abs(r.beta - 1.4142138455) <= 1e-9


def test_argmax_stable_under_offset_rescaling():
    K = regular_polygon(3, 1.0)
    net = uniform_net(7)
    P = tangent_family(18, 5)
    base = beta_direct(K, net, P, seed=2)
    for lam in (0.25, 3.0, 170.0):
        scaled = HPolytope(P.normals.copy(), P.offsets * lam)
        r = beta_direct(K, net, scaled, seed=2)
        assert r.rotation_index == base.rotation_index
        assert abs(r.beta - lam * base.beta) <= 1e-9 * max(1.0, lam * base.beta)


def test_monotone_in_constraints():
    K = regular_polygon(3, 1.0)
    net = uniform_net(3)
    P = tangent_family(24, 9)
    full = beta_direct(K, net, P, seed=0).beta
    rng = np.random.default_rng(0)
    for _ in range(5):
        sub = np.sort(rng.choice(24, size=10, replace=False))
        assert beta_direct(K, net, P.take(sub), seed=0).beta >= full - 1e-9


def test_empty_container_flagged():
    P = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    for solve in (beta_direct, beta_msw):
        r = solve(unit_square(), spin_net([0.0]), P)
        assert r.beta == 0.0
        assert r.placement is None
        assert r.stats.note != ""


def test_unbounded_container_flagged():
    P = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    r = beta_direct(unit_square(), spin_net([0.0]), P)
    assert math.isinf(r.beta)
    assert r.placement is None
    assert r.stats.note != ""


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        beta_direct(unit_square(), spin_net([0.0]),
                    HPolytope(np.eye(3), np.ones(3)))


# ---------------------------------------------------------------------------
# the pruned sweep


def random_body(rng):
    """A random convex polygon, sometimes moved off the origin."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 9)), 2))
        try:
            idx = convex_hull_2d(pts)
        except DegenerateGeometryError:
            continue
        if len(idx) >= 3:
            break
    return VPolytope(pts[idx] + rng.uniform(-1.0, 1.0, 2) * rng.choice([0.0, 3.0]))


def random_instance(seed):
    """A planar body, net and bounded container, often far from the origin."""
    rng = np.random.default_rng(seed)
    K = random_body(rng)
    t = int(rng.integers(1, 41))
    angles = rng.uniform(0.0, 2.0 * math.pi, t)
    if rng.random() < 0.5:
        angles = np.sort(angles)
    net = spin_net(angles)
    extra = rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(0, 11)))
    U = np.vstack([box(-1.0, 1.0).normals, np.stack([np.cos(extra), np.sin(extra)], 1)])
    b = np.concatenate([rng.uniform(1.0, 3.0, 4), rng.uniform(0.5, 2.0, extra.size)])
    P = HPolytope(U, b).translated(rng.uniform(-1.0, 1.0, 2) * rng.choice([0.0, 2.0, 40.0]))
    return K, net, P.scaled(float(rng.choice([0.1, 1.0, 30.0]))), int(rng.integers(2 ** 31))


def _class_loops(solve, K, net, P, **kwargs):
    """`solve(K, net, P, **kwargs)` and the `beta_fixed_rotation` results of
    its class loops, each with the number of distinct start rows it was
    given (`start`)."""
    plain, loops = solver.beta_fixed_rotation, []

    def recording(*args, rows=None, **kw):
        loops.append(plain(*args, rows=rows, **kw))
        loops[-1].start = 0 if rows is None else np.unique(rows).size
        return loops[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "beta_fixed_rotation", recording)
        return solve(K, net, P, **kwargs), loops


def assert_sweep_matches_full_sweep(K, net, P, seed):
    """beta_direct against the unpruned sweep; returns the LPs the sweep solved."""
    beta, index, placement = full_sweep_fit(K, net, P, seed)
    r, loops = _class_loops(beta_direct, K, net, P, seed=seed)
    solved = len(loops)
    assert r.beta == beta
    assert r.rotation_index == index
    if placement is None:
        assert r.placement is None
    else:
        assert r.placement.scale == placement.scale
        assert r.placement.translation.tobytes() == placement.translation.tobytes()
        assert np.array_equal(r.placement.rotation.matrix, net.matrices[index])
    assert r.basis == sorted(set(r.basis)) and set(r.basis) <= set(range(len(P)))
    classes = np.unique(solver._rotation_classes(K, net))
    assert len(r.basis) <= classes.size * (K.dim + 1)
    assert 1 <= solved <= classes.size
    if r.placement is not None:
        again = beta_direct(K, net, P.take(r.basis), seed=5).beta
        assert abs(again - beta) <= 1e-9 * max(1.0, abs(beta))
    return solved


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_pruned_sweep_matches_full_sweep(seed):
    assert_sweep_matches_full_sweep(*random_instance(seed))


def test_pruned_sweep_matches_full_sweep_on_ties_and_edges():
    sq = unit_square()
    angles = [2.0 * math.pi * k / 8 for k in range(1, 9)]
    # exact ties: four of the eight rotations fit the square equally well;
    # the shuffled nets put the lowest tied index after others of equal value
    order = np.random.default_rng(8).permutation(8)
    nets = [spin_net(angles), spin_net(angles[::-1]), spin_net(np.take(angles, order))]
    containers = [box(0.0, 2.0), box(-1.3, 0.7), sq.hull_halfspaces(),
                  box(0.0, 2.0).rotated(Rotation.from_angle(math.pi / 4)),
                  box(0.0, 2.0).translated([50.0, -20.0])]
    for net in nets:
        for P in containers:
            for seed in (0, 1, 77):
                assert_sweep_matches_full_sweep(sq, net, P, seed)
    # unbounded (a half-plane, a quadrant) and empty containers sweep everything
    unbounded = [HPolytope(np.array([[1.0, 0.0]]), np.array([1.0])),
                 HPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))]
    empty = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                      np.array([-1.0, -1.0, 1.0]))
    for P in unbounded + [empty]:
        assert assert_sweep_matches_full_sweep(regular_polygon(3), nets[0], P, 3) == 8
    # 3-D: the unit cube in [0, 2]^3 with 40 random rotations and the identity
    cube = VPolytope(np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                               for z in (0.0, 1.0)]))
    rots = [random_rotation(3, seed=s) for s in range(40)]
    rots.insert(17, Rotation.identity(3))
    net3 = RotationNet(tuple(rots), 0.5, SUFFICIENT_BOUND)
    cut = HPolytope(np.array([[1.0, 1.0, 1.0]]) / math.sqrt(3.0), np.array([3.0]))
    for P in (box_polytope([0.0] * 3, [2.0] * 3), box_polytope([0.0] * 3, [2.0, 3.0, 2.5])):
        assert assert_sweep_matches_full_sweep(cube, net3, P, 4) < len(net3)
        P = HPolytope(np.vstack([P.normals, cut.normals]), np.concatenate([P.offsets, cut.offsets]))
        assert_sweep_matches_full_sweep(cube, net3, P, 4)


def centred_square():
    return VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))


def test_class_sweep_matches_full_sweep_on_symmetric_bodies():
    # rotations whose copies are translates of one another are solved once,
    # at the lowest index of their class, and the fit is the full sweep's
    sq = centred_square()
    order = np.random.default_rng(3).permutation(12)
    # a centred 3:1 rectangle (rho / R about 0.32) merges its half turns
    rect = VPolytope(np.array([[1.5, 0.5], [-1.5, 0.5], [-1.5, -0.5], [1.5, -0.5]]))
    cases = [(sq, build_net_2d(sq, EPS_SQUARE)), (sq, uniform_net(12)),
             (sq, spin_net(np.take([2.0 * math.pi * k / 12 for k in range(12)], order))),
             (rect, uniform_net(12))]
    for k in (3, 5, 6, 8):
        for phase in (0.0, 0.4, 1.3):
            # 2k rotations a half-symmetry apart: two classes of k
            cases.append((regular_polygon(k, 1.0, phase),
                          spin_net([0.25 + math.pi * j / k for j in range(2 * k)])))
    containers = [tangent_family(40, 7), tangent_family(300, 8), box(-1.3, 0.7),
                  box(0.0, 2.0).rotated(Rotation.from_angle(0.3)).translated([5.0, -2.0])]
    for K, net in cases:
        assert np.unique(solver._rotation_classes(K, net)).size < len(net)
        for P in containers:
            for seed in (0, 11):
                assert_sweep_matches_full_sweep(K, net, P, seed)
    # the cube at eps 0.9: 3 971 rotations, in a box cut by a slanted plane
    cube = VPolytope(np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                               for z in (0.0, 1.0)]))
    net3 = build_net_sufficient(cube, 0.9)
    assert np.unique(solver._rotation_classes(cube, net3)).size < len(net3)
    P = box_polytope([0.0] * 3, [2.0, 3.0, 2.5])
    P = HPolytope(np.vstack([P.normals, np.ones((1, 3)) / math.sqrt(3.0)]),
                  np.concatenate([P.offsets, [3.5]]))
    assert assert_sweep_matches_full_sweep(cube, net3, P, 4) <= 3


def test_reflections_of_symmetric_rings_cost_no_lp():
    # F = diag(-1, 1) maps the centred square onto itself and the pentagon
    # onto its half turn, which its eps = 0.1 ring holds, so each reflected
    # copy is a translate of a rotated one and joins that class: the doubled
    # net fits as the plain one does.  A ring that the mirror does not map
    # onto itself, such as the pentagon's single rotation at eps 0.2, pays
    # for its reflected classes.
    sq, pent = centred_square(), regular_polygon(5, 1.0)
    cases = [(sq, RotationNet(_ring(t), 0.3, EXACT_2D)) for t in (4, 11, 27)]
    cases.append((pent, build_net_2d(pent, 0.1)))
    containers = [box(0.0, 2.0).rotated(Rotation.from_angle(0.3)), _bench_instance(300, 1)]
    for K, net in cases:
        doubled = net.with_reflections()
        assert len(doubled) == 2 * len(net)
        assert solver._class_count(K, doubled) == solver._class_count(K, net)
        for P in containers:
            for solve in (beta_direct, beta_msw):
                plain, both = solve(K, net, P), solve(K, doubled, P)
                assert both.beta == plain.beta
                assert both.rotation_index == plain.rotation_index
                assert both.stats.lp_calls == plain.stats.lp_calls


def test_reflections_of_mirror_free_bodies_match_a_fit_of_the_mirror_image():
    # the doubled net's fit is the better of the fits of K and of its mirror
    # image F K, each on its own net, and a reflected copy wins somewhere;
    # jittered pentagons have no mirror symmetry
    rng = np.random.default_rng(36)
    tri = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.7]]))
    flip = np.array([-1.0, 1.0])
    containers = [box(0.0, 2.0).rotated(Rotation.from_angle(0.7)), tangent_family(80, 5),
                  HPolytope(np.array([[0.0, -1.0], [-1.0, 0.0], [0.8, 0.6], [0.6, 0.8]]),
                            np.array([0.0, 0.0, 1.0, 1.1]))]
    reflected = 0
    pentagons = [VPolytope(regular_polygon(5, 1.0).vertices + rng.uniform(-0.1, 0.1, (5, 2)))
                 for _ in range(2)]
    for K in [tri] + pentagons:
        net, mirror = build_net_2d(K, 0.1), VPolytope(K.vertices * flip)
        mirror_net = build_net_2d(mirror, 0.1)
        for P in containers:
            r = beta_msw(K, net.with_reflections(), P)
            best = max(beta_msw(K, net, P).beta, beta_msw(mirror, mirror_net, P).beta)
            assert abs(r.beta - best) <= 1e-12 * best
            reflected += r.rotation_index >= len(net)
    assert reflected > 0


def test_near_symmetric_bodies_do_not_merge():
    # uniform_net(20) holds every multiple of 90 and of 72 degrees, so the
    # square and the pentagon merge, and jittered copies of them must not
    net = uniform_net(20)
    rng = np.random.default_rng(20)
    for K in (centred_square(), regular_polygon(5, 1.0, 0.2)):
        assert np.unique(solver._rotation_classes(K, net)).size < len(net)
        for jitter in (1e-12, 1e-9):
            Kj = VPolytope(K.vertices + rng.uniform(-jitter, jitter, K.vertices.shape))
            assert np.array_equal(solver._rotation_classes(Kj, net), np.arange(len(net)))
            assert_sweep_matches_full_sweep(Kj, net, tangent_family(60, 21), 2)


def test_square_solves_a_quarter_of_its_rotations():
    # the four rotations of the square's t = 4 net give one shape, and on a
    # tangent family no dual can prune a rotation tied with the best
    sq = centred_square()
    net = build_net_2d(sq, EPS_SQUARE)
    assert len(net) == 4
    for n, seed in ((50, 1), (2000, 2)):
        r, loops = _class_loops(beta_direct, sq, net, tangent_family(n, seed), seed=seed)
        assert len(loops) == len(net) // 4
        assert len(r.basis) <= 3


def test_basis_pins_beta_where_the_seidel_chain_does_not():
    # the square with only the first rotation of its t = 4 net, against
    # 30 000 tangent lines: four rows are tight to about 1e-10, and the
    # Seidel chain keeps three whose normals lie in a half-plane, which
    # alone leave the scale unbounded
    sq = centred_square()
    net = build_net_2d(sq, EPS_SQUARE)
    one = RotationNet(net.rotations[:1], net.epsilon, net.certificate)
    ang = np.random.default_rng(np.random.SeedSequence([9201, 1, 25])).uniform(
        0.0, 2.0 * math.pi, 30000)
    P = HPolytope(np.stack([np.cos(ang), np.sin(ang)], axis=1), np.ones(30000))
    r = beta_direct(sq, one, P, seed=25)
    basis = extract_basis(r, sq, one, P)
    assert len(basis) <= 3
    again = beta_direct(sq, one, P.take(basis), seed=5).beta
    assert abs(again - r.beta) <= 1e-9 * r.beta


def test_pruned_sweep_solves_few_rotations_of_a_fine_net():
    K = regular_polygon(3, 1.0)
    P = tangent_family(25, 100)
    net = build_net_2d(K, 0.01)
    solved = assert_sweep_matches_full_sweep(K, net, P, 0)
    assert solved <= len(net) // 10


def _recorded_duals(K, net, P, seed):
    """The duals `_sweep` accepts while `beta_direct` runs, with their rotations."""
    duals = []

    def record(K, rotation, P, tight_rows):
        dual = scale_dual(K, rotation, P, tight_rows)
        if dual is not None:
            duals.append((rotation, tight_rows, dual))
        return dual

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "scale_dual", record)
        beta_direct(K, net, P, seed=seed)
    return duals


def _assert_bounds_hold(dual, K, net, truth):
    bounds = dual.bounds(K, net.matrices)
    for bound, value in zip(bounds, truth):
        if value is not None:
            assert bound >= value - 1e-9 * max(1.0, abs(value)), (bound, value)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_accepted_duals_bound_every_rotation(seed):
    K, net, P, s = random_instance(seed)
    duals = _recorded_duals(K, net, P, s)
    if not duals:
        return
    truth = [highs_scale(K, A, P) for A in net.rotations]
    rng = np.random.default_rng(seed)
    for rotation, tight, dual in duals:
        _assert_bounds_hold(dual, K, net, truth)
        # a dual from a perturbed tight set is rejected or still an upper bound
        tight = list(tight)
        other = [int(j) for j in rng.permutation(len(P)) if j not in tight]
        trials = [tight[1:], tight + other[:1]]
        if other:
            trials.append(other[:1] + tight[1:])
            trials.append(other[:len(tight)])
        for rows in trials:
            wrong = scale_dual(K, rotation, P, rows)
            if wrong is not None:
                _assert_bounds_hold(wrong, K, net, truth)


# ---------------------------------------------------------------------------
# beta_msw


def test_msw_matches_direct_on_tangent_instances():
    K = regular_polygon(3, 1.0)
    net = uniform_net(5)
    for seed in range(40):
        P = tangent_family(30, seed)
        a = beta_direct(K, net, P, seed=seed)
        b = beta_msw(K, net, P, seed=seed)
        assert abs(a.beta - b.beta) <= 1e-9, seed
        assert b.method == "msw"


def test_msw_base_case_identical_to_direct():
    # the first class is no longer solved over all of P: its optimum is
    # built by insertions, so beta may differ from direct's in the last bit
    K = regular_polygon(3, 1.0)
    net = uniform_net(5)
    P = tangent_family(12, 4)
    a = beta_direct(K, net, P, seed=7)
    b = beta_msw(K, net, P, seed=7)
    assert abs(b.beta - a.beta) <= 1e-12 * abs(a.beta)
    assert b.basis == a.basis
    assert b.rotation_index == a.rotation_index


def _rounds(loops):
    """The rounds of class loops, summed: each is one Seidel step, the
    first solve or the insertion of one row."""
    return sum(out.solves for out in loops)


def test_msw_sweeps_once_when_the_sample_is_the_family():
    # small families, n <= 225 = (t (d + 1))^2 with t = 5: both methods
    # solve the first class by the same insertion loop from no row of P,
    # and msw starts each later one from the rows of the dual that bounds
    # it, direct from none, so msw runs no more rounds; the fits agree
    K = regular_polygon(3, 1.0)
    net = uniform_net(5)
    for n in (16, 100, 225):
        P = tangent_family(n, 60 + n)
        a, direct_loops = _class_loops(beta_direct, K, net, P, seed=n)
        b, msw_loops = _class_loops(beta_msw, K, net, P, seed=n)
        assert b.method == "msw"
        assert b.beta == a.beta
        assert b.placement.translation.tobytes() == a.placement.translation.tobytes()
        assert b.basis == a.basis
        assert b.rotation_index == a.rotation_index
        assert _rounds(msw_loops) <= _rounds(direct_loops)
        assert not b.stats.fallback
    # a larger family: the violation tests read all of P at least once
    r = beta_msw(K, net, tangent_family(300, 360), seed=300)
    assert r.stats.violation_tests >= 300


def test_msw_matches_direct_at_larger_n():
    K = regular_polygon(4, 1.0)
    net = uniform_net(4)
    P = tangent_family(2000, 31)
    a = beta_direct(K, net, P, seed=31)
    b = beta_msw(K, net, P, seed=31)
    assert abs(a.beta - b.beta) <= 1e-9
    assert b.stats.violation_tests >= 2000


def boxed_triangle_instance(seed):
    """A `hellyfit fit`-sized instance: a jittered triangle with its net at
    epsilon 0.2 (t = 21, all classes distinct), in the box [-3, 3]^2 cut by
    100 half-planes at distance 1.2 to 2.5 from the origin: 104 rows."""
    rng = np.random.default_rng([seed, 7])
    step = 2.0 * math.pi / 3
    ang = rng.uniform(0.0, step) + step * np.arange(3) + rng.uniform(-0.1, 0.1, 3) * step
    rad = rng.uniform(0.8, 1.2) * (1.0 + rng.uniform(-0.02, 0.02, 3))
    K = VPolytope(np.stack([rad * np.cos(ang), rad * np.sin(ang)], 1))
    cut = rng.uniform(0.0, 2.0 * math.pi, 100)
    U = np.vstack([box(-3.0, 3.0).normals, np.stack([np.cos(cut), np.sin(cut)], 1)])
    b = np.concatenate([np.full(4, 3.0), rng.uniform(1.2, 2.5, 100)])
    return K, build_net_2d(K, 0.2), HPolytope(U, b)


@pytest.mark.parametrize("seed", range(6))
def test_msw_matches_direct_on_fit_sized_instances(seed):
    # later classes start from the support of the dual that bounds them,
    # not from all of P; the answer and its certificate stay direct's
    K, net, P = boxed_triangle_instance(seed)
    assert len(net) == 21 and len(P) <= (len(net) * 3) ** 2 + 1
    a = beta_direct(K, net, P, seed=seed)
    b = beta_msw(K, net, P, seed=seed)
    assert abs(b.beta - a.beta) <= 1e-12 * abs(a.beta)
    assert b.rotation_index == a.rotation_index
    assert b.basis == a.basis
    assert extract_basis(b, K, net, P) == b.basis


def test_msw_reads_at_most_half_the_lp_rows_of_direct():
    # a deterministic work guard: with later classes started from their
    # binding dual's support, beta_msw's class loops take at most half the
    # LP steps (`_rounds`) of beta_direct's, which start from no row
    K, net, P = boxed_triangle_instance(0)
    msw = _rounds(_class_loops(beta_msw, K, net, P, seed=0)[1])
    direct = _rounds(_class_loops(beta_direct, K, net, P, seed=0)[1])
    assert 2 * msw <= direct, (msw, direct)


def test_msw_violation_tests_stay_linear():
    # one rotation class, so one insertion loop a fit; the rows its
    # violation tests read per half-space must not drift with n
    K = unit_square()
    net = build_net_2d(K, EPS_SQUARE)
    ratios = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        r = beta_msw(K, net, tangent_family(n, 5150 + n), seed=11)
        assert not r.stats.fallback
        ratios.append(r.stats.violation_tests / n)
    assert max(ratios) < 2.0 * min(ratios)


def test_msw_seed_changes_work_not_value():
    K = regular_polygon(3, 1.0)
    net = uniform_net(4)
    P = tangent_family(400, 2)
    runs = [beta_msw(K, net, P, seed=s) for s in (0, 1, 2)]
    for r in runs[1:]:
        assert abs(r.beta - runs[0].beta) <= 1e-9
    # same seed twice: identical counters
    again = beta_msw(K, net, P, seed=0)
    assert again.stats.lp_calls == runs[0].stats.lp_calls
    assert again.stats.violation_tests == runs[0].stats.violation_tests


def test_msw_unbounded_family_falls_back_flagged():
    # all normals point the same way, so no row held bounds the copy: the
    # loop tests its witness on the implicit box, adds the rows that cut
    # its ray, and reads P as unbounded once none is left
    rng = np.random.default_rng(8)
    ang = rng.uniform(-0.3, 0.3, 40)
    P = HPolytope(np.stack([np.cos(ang), np.sin(ang)], axis=1), np.ones(40))
    r = beta_msw(unit_square(), spin_net([0.0]), P, seed=0)
    assert math.isinf(r.beta)
    assert not r.stats.fallback
    assert r.stats.note == "container does not bound the copy"
    assert r.stats.lp_calls <= 3


def test_msw_canonical_placement_stays_inside_container():
    # the canonical pin row once raised the LP's offset normalization, and
    # with it the slack on P's rows: this placement left P by 1.4e-9
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    net = build_net_2d(K, EPS_SQUARE)
    ang = np.random.default_rng(np.random.SeedSequence([22, 1, 16])).uniform(
        0.0, 2.0 * math.pi, 1000)
    P = HPolytope(np.stack([np.cos(ang), np.sin(ang)], axis=1), np.ones(1000))
    r = beta_msw(K, net, P, seed=935117317)
    pts = r.placement.apply_points(K.vertices)
    tol = 1e-9 * np.maximum(1.0, np.abs(P.offsets))
    assert np.all(P.normals @ pts.T <= (P.offsets + tol)[:, None])


def test_msw_canonical_step_reads_the_family_only_in_violation_tests(monkeypatch):
    # 30 000 lines tangent to the unit circle, where the square's
    # lexicographic vertex is ill-conditioned: the canonical step starts
    # from the rows nearly tight at the winner's optimum and hands Seidel's
    # scan (`lp._seidel`, under seidel_lp and the insertion loop alike) a
    # small share of the rows (over 2n when it solved over every row), and
    # its violation tests count in violation_tests next to the class loops'
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    net = build_net_2d(K, EPS_SQUARE)
    n = 30000
    ang = np.random.default_rng(np.random.SeedSequence([101, 1, 25])).uniform(
        0.0, 2.0 * math.pi, n)
    P = HPolytope(np.stack([np.cos(ang), np.sin(ang)], axis=1), np.ones(n))
    seed = int(np.random.SeedSequence([101, 2, 25]).generate_state(1)[0])
    rows, tests, inside = [], [], [False]
    plain_lp, plain_canon = lp._seidel, solver.canonical_placement
    plain_test = lp._overshoot

    def counting_lp(A, *args):
        if inside[0]:
            rows.append(len(A))
        return plain_lp(A, *args)

    def canonical(*args, **kwargs):
        inside[0] = True
        try:
            return plain_canon(*args, **kwargs)
        finally:
            inside[0] = False

    def counting(placement, support, P_, limits):
        tests.append(len(P_))
        return plain_test(placement, support, P_, limits)

    monkeypatch.setattr(lp, "_seidel", counting_lp)
    monkeypatch.setattr(solver, "canonical_placement", canonical)
    monkeypatch.setattr(lp, "_overshoot", counting)
    r = beta_msw(K, net, P, seed=seed)
    assert not r.stats.fallback
    assert 0 < sum(rows) < n / 4
    assert r.stats.violation_tests == sum(tests) >= 3 * n
    pts = r.placement.apply_points(K.vertices)
    slack = 2.0 * FEAS_TOL * max(1.0, float(np.max(np.abs(P.offsets))))
    assert np.all(P.normals @ pts.T <= (P.offsets + slack)[:, None])


def test_msw_samples_by_rotation_classes():
    # no class loop samples: each starts from at most d + 1 rows, the
    # support of the dual that bounds it (none for the first), plus the
    # two rows always held, P's row of largest |b| and the sign row; the
    # first is the only row of P those two add.  A t = 27 net makes many
    # classes start from a dual's support
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    for eps in (EPS_SQUARE, 0.1):
        net = build_net_2d(K, eps)
        for n in (100, 1000, 10000):
            r, loops = _class_loops(beta_msw, K, net, tangent_family(n, 70 + n), seed=n)
            assert loops[0].start == 0
            for out in loops:
                assert out.start <= K.dim + 1
                assert len(out.held) - (out.solves - 1) <= out.start + 1
            assert r.stats.violation_tests >= n


def test_msw_round_cap_falls_back_flagged(monkeypatch):
    # a violation test that reports every row makes each class loop hold
    # all of P, one row a round; the loop still ends, unflagged, with
    # beta_direct's value
    K, net, P = unit_square(), uniform_net(2), tangent_family(100, 3)
    a = beta_direct(K, net, P, seed=0)
    monkeypatch.setattr(lp, "_overshoot",
                        lambda placement, support, P_, limits: np.ones(len(P_)))
    r, loops = _class_loops(beta_msw, K, net, P, seed=0)
    assert loops and all(len(out.held) == len(P) for out in loops)
    assert not r.stats.fallback
    assert abs(r.beta - a.beta) <= 1e-12 * a.beta


def test_msw_on_a_net_of_many_classes_solves_fewer_rows_than_direct(monkeypatch):
    # the square's eps = 0.1 net has 27 rotation classes.  Every class loop,
    # of either method, hands Seidel's scan (`lp._seidel`) only its start
    # rows: the support of the dual that bounds it, at most d + 1 rows (none
    # for direct), P's row of largest |b| and the sign row, so at most
    # d + 3 of the 20 000 rows; it inserts the rest it needs.  Starting
    # from those supports, msw's loops insert fewer rows than direct's
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    net = build_net_2d(K, 0.1)
    assert solver._class_count(K, net) == 27
    P = _bench_instance(20000, 0)
    rows, loops, inside = [], [], [False]
    plain_lp, plain_fixed = lp._seidel, solver.beta_fixed_rotation

    def counting(A, *args):
        if inside[0]:
            rows.append(len(A))
        return plain_lp(A, *args)

    def fixed(*args, **kwargs):
        inside[0] = True
        try:
            loops.append(plain_fixed(*args, **kwargs))
        finally:
            inside[0] = False
        return loops[-1]

    monkeypatch.setattr(lp, "_seidel", counting)
    monkeypatch.setattr(solver, "beta_fixed_rotation", fixed)
    a = beta_direct(K, net, P, seed=0)
    direct_rows, direct_rounds = rows[:], _rounds(loops)
    rows.clear()
    loops.clear()
    b = beta_msw(K, net, P, seed=0)
    assert b.rotation_index == a.rotation_index
    assert abs(b.beta - a.beta) <= 1e-9 * a.beta
    for counts in (direct_rows, rows):
        assert counts and max(counts) <= K.dim + 3
    assert _rounds(loops) < direct_rounds


def test_fallbacks_escalations_and_refusals_are_logged(caplog):
    caplog.set_level(logging.INFO, logger="hellyfit")
    K, net = unit_square(), uniform_net(2)
    # 1997 lids y <= b and three walls: rows held that miss a wall leave
    # the copy free to slide, and the loop adds the rows that stop it
    # without a word
    n = 2000
    U = np.vstack([np.tile([0.0, 1.0], (n - 3, 1)),
                   [[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]])
    P = HPolytope(U, np.concatenate([np.linspace(2.0, 3.0, n - 3), [2.0, 2.0, 2.0]]))
    assert beta_msw(K, net, P, seed=0).beta == beta_direct(K, net, P, seed=0).beta
    assert not caplog.records
    with pytest.raises(ValueError, match="limit"):
        beta_brute(regular_polygon(3, 1.0), uniform_net(4), tangent_family(200, 0))
    cube = VPolytope(np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                               for z in (0, 1)], dtype=float))
    with pytest.raises(NetTooLargeError):
        build_net_sufficient(cube, 0.1)
    refusals = [r.getMessage() for r in caplog.records]
    assert len(refusals) == 2 and all(m.startswith("refused: ") for m in refusals)
    assert "100000 limit" in refusals[0] and "limit of 20000" in refusals[1]
    assert all(r.name.startswith("hellyfit.") for r in caplog.records)


def sampling_instance(seed):
    """random_instance's body and container placement, with a net of at
    most three rotations and a family of more than (t (d + 1))^2 rows, far
    more than any class loop holds."""
    rng = np.random.default_rng(seed)
    K = random_body(rng)
    t = int(rng.integers(1, 4))
    net = spin_net(rng.uniform(0.0, 2.0 * math.pi, t))
    n = int(rng.integers(2 * (3 * t) ** 2, 401))
    extra = rng.uniform(0.0, 2.0 * math.pi, n - 4)
    U = np.vstack([box(-1.0, 1.0).normals, np.stack([np.cos(extra), np.sin(extra)], 1)])
    b = np.concatenate([rng.uniform(1.0, 3.0, 4), rng.uniform(0.5, 2.0, extra.size)])
    P = HPolytope(U, b).translated(rng.uniform(-1.0, 1.0, 2) * rng.choice([0.0, 2.0, 40.0]))
    return K, net, P.scaled(float(rng.choice([0.1, 1.0, 30.0]))), int(rng.integers(2 ** 31))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_msw_certifies_by_violation_test(seed):
    # the loop's optimum, once no half-space objects, is the answer: no
    # loop holds all of P, and beta_direct's rotation, beta and placement
    K, net, P, s = sampling_instance(seed)
    n = len(P)
    assert n > (len(net) * 3) ** 2
    plain = solver.beta_fixed_rotation
    whole = []

    def counting(K_, rotation, P_, *args, **kwargs):
        out = plain(K_, rotation, P_, *args, **kwargs)
        whole.append(len(out.held) == len(P_))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "beta_fixed_rotation", counting)
        r = beta_msw(K, net, P, seed=s)
    assert whole and not any(whole)
    assert r.stats.violation_tests >= n
    a = beta_direct(K, net, P, seed=s)
    assert r.rotation_index == a.rotation_index
    assert abs(r.beta - a.beta) <= 1e-9 * abs(a.beta)
    assert np.all(np.abs(r.placement.translation - a.placement.translation)
                  <= 1e-9 * np.maximum(1.0, np.abs(a.placement.translation)))
    assert len(r.basis) <= len(net) * 3
    again = beta_direct(K, net, P.take(r.basis), seed=s).beta
    assert abs(again - r.beta) <= 1e-9 * max(1.0, abs(r.beta))
    pts = r.placement.apply_points(K.vertices)
    slack = 2.0 * FEAS_TOL * max(1.0, float(np.max(np.abs(P.offsets))))
    assert np.all(P.normals @ pts.T <= (P.offsets + slack)[:, None])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_msw_class_loops_grow_every_round(seed):
    # each round adds rows of P to those held, so a loop of s rounds holds
    # its start rows (after the first class, the support of the dual that
    # bounds it) and at least s - 1 more, and tests all of P after each
    # round but a last one that found the rows held empty
    K, net, P, s = sampling_instance(seed)
    n = len(P)
    _, loops = _class_loops(beta_msw, K, net, P, seed=s)
    assert loops
    for out in loops:
        assert len(out.held) >= out.start + out.solves - 1
        assert out.tested in (n * out.solves, n * (out.solves - 1))
        assert out.tested < n * out.solves or len(out.held) < n


def test_msw_round_is_one_insertion_not_a_resolve(monkeypatch):
    # a class loop runs Seidel's scan at full dimension once, on its start
    # rows, and never calls seidel_lp; each later round tests all of P,
    # holds the deepest violator not yet held and inserts it into the
    # standing optimum, so a loop of s rounds holds its start rows and
    # exactly s - 1 more
    plain_fixed, plain_solve, plain_test, plain_lp = (
        solver.beta_fixed_rotation, lp._solve, lp._overshoot, lp.seidel_lp)
    loops, inside, nvars = [], [False], [0]

    def fixed(*args, **kwargs):
        loops.append({"rows": kwargs["rows"], "scans": 0, "depths": []})
        inside[0] = True
        try:
            loops[-1]["out"] = plain_fixed(*args, **kwargs)
        finally:
            inside[0] = False
        return loops[-1]["out"]

    def solve(A, b, ids, c, rng):
        if inside[0] and len(c) == nvars[0]:
            loops[-1]["scans"] += 1
        return plain_solve(A, b, ids, c, rng)

    def test(placement, support, P_, limits):
        depth = plain_test(placement, support, P_, limits)
        if inside[0]:
            loops[-1]["depths"].append(depth.copy())
        return depth

    def no_lp(*args, **kwargs):
        assert not inside[0], "a class loop called seidel_lp"
        return plain_lp(*args, **kwargs)

    monkeypatch.setattr(solver, "beta_fixed_rotation", fixed)
    monkeypatch.setattr(lp, "_solve", solve)
    monkeypatch.setattr(lp, "_overshoot", test)
    monkeypatch.setattr(lp, "seidel_lp", no_lp)
    for seed in range(8):
        K, net, P, s = sampling_instance(seed)
        n, nvars[0] = len(P), K.dim + 1
        loops.clear()
        beta_msw(K, net, P, seed=s)
        assert loops
        for loop in loops:
            out = loop["out"]
            assert loop["scans"] == 1
            held = np.zeros(n, dtype=bool)
            if loop["rows"] is not None:   # None: no start row, as for direct
                held[loop["rows"]] = True
            held[int(np.argmax(np.abs(P.offsets)))] = True
            start = int(held.sum())
            assert len(loop["depths"]) == out.solves
            for depth in loop["depths"][:-1]:
                r = int(np.where(held, -np.inf, depth).argmax())
                assert depth[r] > 0 and not held[r]
                held[r] = True
            assert not np.any(loop["depths"][-1][~held] > 0)
            assert np.array_equal(np.flatnonzero(held), out.held)
            assert len(out.held) == start + out.solves - 1
            assert out.tested == n * out.solves


def test_msw_rounds_stay_flat_in_n_on_a_net_of_many_classes():
    # test_msw_violation_tests_stay_linear's criterion on the square's
    # t = 27 net, whose 27 rotation classes each run a loop: the rows the
    # violation tests read per half-space must not drift with n
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    net = build_net_2d(K, 0.1)
    assert solver._class_count(K, net) == 27
    ratios = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        r = beta_msw(K, net, _bench_instance(n, 0), seed=0)
        ratios.append(r.stats.violation_tests / n)
    assert max(ratios) < 2.0 * min(ratios), ratios


# ---------------------------------------------------------------------------
# beta_brute


def test_brute_single_tuple_is_direct():
    K = regular_polygon(3, 1.0)
    net = spin_net([math.pi])     # delta = 3
    P = tangent_family(3, 0)
    rb = beta_brute(K, net, P)
    rd = beta_direct(K, net, P, seed=0)
    assert abs(rb.beta - rd.beta) <= 1e-9


def test_brute_matches_direct_n10_t2():
    K = regular_polygon(3, 1.0)
    net = spin_net([math.pi, 2.0 * math.pi])
    P = tangent_family(10, 3)
    rb = beta_brute(K, net, P)
    rd = beta_direct(K, net, P, seed=3)
    assert abs(rb.beta - rd.beta) <= 1e-9
    img = rb.placement.apply_points(K.vertices)
    assert ((P.normals @ img.T).max(axis=1) - P.offsets).max() <= 1e-8


def test_brute_monotone_when_halfspace_added():
    K = regular_polygon(3, 1.0)
    net = spin_net([2.0 * math.pi])
    P = tangent_family(8, 6)
    smaller = beta_brute(K, net, P).beta
    bigger = beta_brute(K, net, P.take(range(7))).beta
    assert smaller <= bigger + 1e-9


def test_brute_enumerates_subsets_of_the_class_basis_size(monkeypatch):
    # the square's t = 4 net is one rotation class: subsets of 1 * 3 rows,
    # C(24, 3) = 2 024 of them, where 4 * 3 rows would be C(24, 12) = 2 704 156
    sq = centred_square()
    net = build_net_2d(sq, EPS_SQUARE)
    P = _bench_instance(24, 0)
    subsets = []
    value = solver._subfamily_value

    def counted(K, net, P, rows, seed):
        subsets.append(rows)
        return value(K, net, P, rows, seed)

    monkeypatch.setattr(solver, "_subfamily_value", counted)
    rb = beta_brute(sq, net, P)
    assert len(net) == 4 and len(subsets) == math.comb(24, 3)
    assert {len(rows) for rows in subsets} == {3}
    rd = beta_direct(sq, net, P)
    assert abs(rb.beta - rd.beta) <= 1e-12 * rd.beta


def test_brute_refuses_large_enumeration():
    K = regular_polygon(3, 1.0)
    net = uniform_net(4)          # delta = 12
    with pytest.raises(ValueError, match="limit"):
        beta_brute(K, net, tangent_family(200, 0))


# ---------------------------------------------------------------------------
# bases


def test_basis_small_and_sufficient():
    K = regular_polygon(3, 1.0)
    net = uniform_net(4)
    for seed in range(5):
        P = tangent_family(26, seed + 50)
        r = beta_direct(K, net, P, seed=seed)
        assert len(r.basis) <= len(net) * 3
        again = beta_direct(K, net, P.take(r.basis), seed=seed)
        assert abs(again.beta - r.beta) <= 1e-9
        r2 = beta_msw(K, net, P, seed=seed)
        assert len(r2.basis) <= len(net) * 3
        assert abs(beta_direct(K, net, P.take(r2.basis), seed=seed).beta
                   - r2.beta) <= 1e-9


def test_extract_basis_on_single_rotations_in_a_rotated_box():
    # 208 instances: four bodies, 13 single-rotation nets, solver seeds 0-3.
    # A basis of three walls, two of them opposite, pins beta and leaves
    # the copy free to slide; its re-solve once read as unbounded
    P = box(0.0, 2.0).rotated(Rotation.from_angle(0.3)).translated([5.0, -2.0])
    bodies = (regular_polygon(5, 1.0, 1.3), regular_polygon(5, 1.0, 0.4),
              centred_square(), regular_polygon(3, 1.0))
    for K in bodies:
        for angle in np.linspace(0.0, 2.0 * math.pi, 13, endpoint=False):
            net = spin_net([angle])
            refs = {}
            for seed in range(4):
                for method in (beta_direct, beta_msw):
                    r = method(K, net, P, seed=seed)
                    basis = tuple(extract_basis(r, K, net, P))
                    if basis not in refs:
                        refs[basis] = highs_scale(K, net.rotations[0], P.take(basis))
                    assert abs(refs[basis] - r.beta) <= 1e-9 * r.beta


def test_extract_basis_drops_appended_redundancy():
    sq = unit_square()
    P0 = sq.hull_halfspaces()
    # eight extra half-spaces strictly containing the square: never needed
    extra_n = np.vstack([P0.normals, P0.normals])
    extra_b = np.concatenate([P0.offsets + 1.0, P0.offsets + 2.0])
    P = HPolytope(np.vstack([P0.normals, extra_n]),
                  np.concatenate([P0.offsets, extra_b]))
    net = spin_net([k * math.pi / 2.0 for k in range(4)], EPS_SQUARE)
    r = beta_direct(sq, net, P, seed=0)
    basis = extract_basis(r, sq, net, P)
    assert set(basis) <= {0, 1, 2, 3}
    assert abs(beta_direct(sq, net, P.take(basis), seed=0).beta - r.beta) <= 1e-9


def test_extract_basis_single_halfspace():
    P = HPolytope(np.array([[0.0, 1.0]]), np.array([2.0]))
    net = spin_net([0.0])
    r = beta_direct(unit_square(), net, P)
    assert extract_basis(r, unit_square(), net, P) == [0]


# ---------------------------------------------------------------------------
# alpha_reference


def test_reference_identity_fit():
    sq = unit_square()
    a = alpha_reference(sq, sq.hull_halfspaces(), 0.01, seed=0)
    assert 1.0 - 0.01 <= a <= 1.0 + 1e-9


def test_reference_disk_like_body_in_square():
    K = regular_polygon(256, 1.0)
    a = alpha_reference(K, unit_square().hull_halfspaces(), 0.01, seed=0)
    assert abs(a - 0.5) <= 0.005


def test_sandwich_brackets_coarse_run():
    K = regular_polygon(3, 1.0)
    eps, fine = 0.1, 0.005
    for seed in (0, 1):
        P = tangent_family(25, seed + 100)
        net = build_net_2d(K, eps)
        beta = beta_direct(K, net, P, seed=seed).beta
        ref = alpha_reference(K, P, fine, seed=seed)
        assert (1.0 - eps) * ref - 1e-6 <= beta <= ref / (1.0 - fine) + 1e-6


# ---------------------------------------------------------------------------
# serialization


def test_fit_result_json_schema():
    K = regular_polygon(3, 1.0)
    net = uniform_net(3)
    r = beta_direct(K, net, tangent_family(12, 1), seed=1)
    blob = r.to_json()
    assert set(blob) == {"beta", "placement", "basis", "method", "stats"}
    assert set(blob["placement"]) == {"translation", "scale", "rotation"}
    assert set(blob["stats"]) == {"lp_calls", "violation_tests", "wall_time_s",
                                  "fallback", "note"}
    assert blob["method"] == "direct"
    assert all(isinstance(i, int) for i in blob["basis"])
