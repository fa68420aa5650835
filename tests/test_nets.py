import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import envelope_slack_angle, grid_scan_max_angle
from hellyfit import lp, nets
from hellyfit.geometry import (
    DegenerateGeometryError,
    Rotation,
    UnsupportedDimensionError,
    VPolytope,
    convex_hull_2d,
    miniball,
    random_rotation,
    regular_polygon,
    unit_square,
)
from hellyfit.lab import DEMO_NET_EPS, cap_body
from hellyfit.lp import beta_fixed_rotation, chebyshev_inradius, fit_check
from hellyfit.nets import (
    EXACT_2D,
    NET_LIMIT,
    SUFFICIENT_BOUND,
    NetTooLargeError,
    RotationNet,
    _net_size,
    _ring,
    build_net_2d,
    build_net_sufficient,
    max_angle_2d,
    verify_net,
)

EPS_SQUARE = 1.0 - 1.0 / math.sqrt(2.0)


def random_hexagon(seed=123):
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.normal(size=(6, 2))
        try:
            idx = convex_hull_2d(pts)
        except DegenerateGeometryError:
            continue
        if len(idx) == 6:
            return VPolytope(pts[idx])


def triangle_alpha(eps):
    # slack angle of the equilateral triangle: fit scale at angle theta is
    # 1 / (2 cos(pi/3 - theta)) on [0, pi/3], so the contact angle solves
    # (1 - eps) = fit scale
    return math.pi / 3.0 - math.acos(1.0 / (2.0 * (1.0 - eps)))


# ---------------------------------------------------------------------------
# max_angle_2d against closed forms


def test_square_contact_angle_closed_form():
    a = max_angle_2d(unit_square(), EPS_SQUARE)
    assert abs(a - math.pi / 4.0) <= 1e-6


def test_triangle_contact_angle_closed_form():
    tri = regular_polygon(3, 1.0)
    for eps in (0.35, 0.40, 0.45):
        a = max_angle_2d(tri, eps)
        assert abs(a - triangle_alpha(eps)) <= 1e-6, eps


def test_triangle_no_slack_at_zero_epsilon():
    assert max_angle_2d(regular_polygon(3, 1.0), 0.0) == 0.0


def test_ball_like_body_has_full_slack():
    # a 64-gon shrunk by 5% fits itself at every angle, so the scan caps at pi
    a = max_angle_2d(regular_polygon(64, 1.0), 0.05)
    assert a == math.pi


def test_triangle_full_slack_above_half():
    # below scale 1/2 the triangle fits itself at every rotation
    assert max_angle_2d(regular_polygon(3, 1.0), 0.6) == math.pi


def test_max_angle_monotone_in_epsilon():
    shapes = [regular_polygon(3, 1.0), unit_square(), random_hexagon()]
    grid = (0.15, 0.25, 0.35, 0.45)
    for K in shapes:
        vals = [max_angle_2d(K, e) for e in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-6


def test_max_angle_ignores_a_vertex_on_a_straight_edge():
    # an edge's midpoint pushed out by rounding's size stays on the hull; its
    # two edges share a normal to rounding, and the slack is the polygon's
    for seed, push in ((33, 1e-16), (58, 1e-15), (74, 1e-16), (87, 1e-16), (105, 1e-16)):
        pts = np.random.default_rng(seed).normal(size=(5, 2))
        H = pts[convex_hull_2d(pts)]
        mid = 0.5 * (H[0] + H[1])
        V = np.vstack([H, mid + (mid - H.mean(axis=0)) * push])
        alpha = max_angle_2d(VPolytope(V), 0.2)
        assert abs(alpha - max_angle_2d(VPolytope(H), 0.2)) <= 1e-9, seed


def test_max_angle_rejects_bad_inputs():
    with pytest.raises(ValueError):
        max_angle_2d(unit_square(), 1.0)
    with pytest.raises(ValueError):
        max_angle_2d(unit_square(), -0.1)
    with pytest.raises(UnsupportedDimensionError):
        cube = VPolytope(np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                                   for z in (0, 1)], dtype=float))
        max_angle_2d(cube, 0.1)
    with pytest.raises(DegenerateGeometryError):
        max_angle_2d(VPolytope(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])), 0.1)


def jittered_polygon(rng, m, jitter=0.3):
    step = 2.0 * math.pi / m
    angles = (rng.uniform(0.0, step) + step * np.arange(m)
              + rng.uniform(-jitter, jitter, m) * step)
    radii = 1.0 + rng.uniform(-0.2, 0.2, m) * jitter
    return VPolytope(np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1))


def has_contact(K, eps):
    # some sampled rotation of K already fails to hold the shrunk copy, so
    # the slack is below pi and the plain scan stops early
    PK = K.hull_halfspaces()
    return any(beta_fixed_rotation(K, Rotation.from_angle(float(t)), PK).value
               < 1.0 - eps
               for t in np.linspace(-math.pi, math.pi, 48, endpoint=False))


def count_lps(monkeypatch):
    calls = [0]
    solve = lp.seidel_lp

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "seidel_lp", counting)
    return calls


def test_max_angle_matches_plain_grid_scan():
    # the walk follows beta(theta) exactly, the scan samples it on a grid and
    # bisects to 1e-9: alpha agrees within 1e-9 and t is equal.  A dip
    # narrower than a grid cell that is not a grid local minimum goes unseen
    # by the scan, so there the walk's alpha may be smaller; it must then be
    # the all-rays envelope's.
    rng = np.random.default_rng(2024)
    cases = [(regular_polygon(3, 1.0), 0.4, 1e-3), (unit_square(), EPS_SQUARE, 1e-3)]
    while len(cases) < 10:
        m, eps = int(rng.integers(3, 9)), float(rng.uniform(0.05, 0.35))
        K = jittered_polygon(rng, m)
        if has_contact(K, eps):
            cases.append((K, eps, 2e-3))
    for K, eps, tol in cases:
        grid = grid_scan_max_angle(K, eps, tol)
        assert grid < math.pi
        alpha = max_angle_2d(K, eps)
        if abs(alpha - grid) <= 1e-9:
            assert _net_size(alpha) == _net_size(grid), (len(K), eps)
            assert len(build_net_2d(K, eps)) == _net_size(grid)
        else:
            assert alpha < grid, (len(K), eps)
            assert abs(alpha - envelope_slack_angle(K, eps)) <= 1e-9, (len(K), eps)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       eps=st.floats(min_value=0.01, max_value=0.6))
def test_max_angle_matches_the_ray_envelope(seed, eps):
    # the walk's alpha is that of the envelope of every dual ray, in closed form
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(3, 9)), 2))
    try:
        K = VPolytope(pts[convex_hull_2d(pts)])
    except DegenerateGeometryError:
        return
    assert abs(max_angle_2d(K, eps) - envelope_slack_angle(K, eps)) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       theta=st.floats(min_value=-math.pi, max_value=math.pi),
       delta=st.floats(min_value=-1.0, max_value=1.0))
def test_rotated_scale_bound(seed, theta, delta):
    # beta(theta + delta) >= beta(theta) r / (r + beta(theta) |delta| R), the
    # bound behind the full-slack shortcut (module docstring)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(3, 11)), 2))
    K = VPolytope(pts[convex_hull_2d(pts)])
    PK = K.hull_halfspaces()
    r = chebyshev_inradius(PK).radius
    R = miniball(K.vertices).radius

    def beta(angle):
        return beta_fixed_rotation(K, Rotation.from_angle(angle), PK).value

    b = beta(theta)
    assert beta(theta + delta) >= b * r / (r + b * abs(delta) * R) - 1e-9


def test_full_slack_bodies_need_no_scan(monkeypatch):
    # r/R above 1 - eps: the inradius LP is the only one, and there is no walk
    walks = []
    monkeypatch.setattr(nets, "_walk", lambda *args: walks.append(args))
    calls = count_lps(monkeypatch)
    for K, eps in ((regular_polygon(64, 1.0), 0.05),
                   (cap_body(2, margin=math.pi / 4), DEMO_NET_EPS)):
        calls[0] = 0
        assert max_angle_2d(K, eps) == math.pi
        assert calls[0] <= 1
    assert walks == []


def test_square_scan_solves_few_margin_lps(monkeypatch):
    # a plain 1e-3 rad grid scan solves 1595 margin LPs here; the walk solves
    # none, so the inradius LP is the only one
    calls = count_lps(monkeypatch)
    assert max_angle_2d(unit_square(), EPS_SQUARE) < math.pi
    assert calls[0] <= 1


# ---------------------------------------------------------------------------
# build_net_2d


def test_square_net_is_the_four_right_angles():
    net = build_net_2d(unit_square(), EPS_SQUARE)
    assert len(net) == 4
    assert net.certificate == EXACT_2D
    # every multiple of pi/2 is represented (circular distance)
    for k in range(4):
        target = k * math.pi / 2.0
        diffs = [abs((a - target + math.pi) % (2 * math.pi) - math.pi)
                 for a in net.angles()]
        assert min(diffs) <= 1e-6


def test_64gon_net_is_small():
    net = build_net_2d(regular_polygon(64, 1.0), 0.05)
    assert len(net) <= 32


def test_net_rejects_zero_slack():
    with pytest.raises(DegenerateGeometryError):
        build_net_2d(regular_polygon(3, 1.0), 1e-9)


def test_ring_ends_on_the_exact_identity():
    for t in (1, 2, 3, 7, 27):
        ring = _ring(t)
        assert len(ring) == t
        assert np.array_equal(ring[-1], np.eye(2))


def probed_net_size(K, eps):
    # t from max_angle_2d, then build_net_2d's +-pi/t probes
    t = _net_size(max_angle_2d(K, eps))
    PK = K.hull_halfspaces()
    for _ in range(3):
        if all(fit_check(K, Rotation.from_angle(s * math.pi / t), 1.0 - eps, PK)
               for s in (1.0, -1.0)):
            break
        t += 1
    return t


def test_net_size_is_that_of_the_full_precision_angle(monkeypatch):
    # build_net_2d's t (the first probe is at pi/t) and its probed net size
    # are the ones max_angle_2d's alpha gives.  The polygons carry fit_cli's
    # jitter of 0.1.
    probes = []
    check = nets.fit_check

    def recording(K, rotation, *args):
        probes.append(rotation.matrix)
        return check(K, rotation, *args)

    monkeypatch.setattr(nets, "fit_check", recording)
    rng = np.random.default_rng(7)
    cases = [(regular_polygon(m, 1.0), eps) for m in (3, 5, 6) for eps in (0.1, 0.2, 0.4)]
    for _ in range(40):
        m, eps = int(rng.integers(3, 9)), float(rng.uniform(0.05, 0.35))
        cases.append((jittered_polygon(rng, m, jitter=0.1), eps))
    for K, eps in cases:
        t = _net_size(max_angle_2d(K, eps))
        probes.clear()
        net = build_net_2d(K, eps)
        assert np.array_equal(probes[0], Rotation.from_angle(math.pi / t).matrix)
        assert len(net) == probed_net_size(K, eps), (len(K), eps)


def test_net_size_is_infinite_at_zero_slack():
    assert _net_size(0.0) == math.inf
    assert _net_size(math.pi) == 1
    assert _net_size(math.pi / 4.0) == 4


def test_net_build_stops_bisecting_once_t_is_decided(monkeypatch):
    # once max_angle_2d has decided t, the net build solves only the +-pi/t
    # fit probes on top of it
    calls = count_lps(monkeypatch)
    K = regular_polygon(3, 1.0)
    max_angle_2d(K, 0.4)
    angle_lps, calls[0] = calls[0], 0
    build_net_2d(K, 0.4)
    assert calls[0] <= angle_lps + 2


def test_planar_nets_solve_at_most_three_lps(monkeypatch):
    # the inradius and the two +-pi/t probes; the walk solves no LP.  The cap
    # bodies' nets keep their sizes
    calls = count_lps(monkeypatch)
    rng = np.random.default_rng(11)
    cases = [(unit_square(), EPS_SQUARE, 4), (regular_polygon(3, 1.0), 0.4, 7),
             (jittered_polygon(rng, 5), 0.1, None), (regular_polygon(64, 1.0), 0.05, 1)]
    cases += [(cap_body(n, margin=math.pi / (2 * n)), DEMO_NET_EPS, t)
              for n, t in ((2, 1), (3, 23), (4, 31))]
    for K, eps, t in cases:
        calls[0] = 0
        net = build_net_2d(K, eps)
        assert calls[0] <= 3, (len(K), eps)
        assert t is None or len(net) == t


def test_planar_net_refuses_more_than_the_limit(monkeypatch):
    # the square at eps = 1e-5 has slack angle 9.99915e-6 rad, where
    # cos + sin reaches 1 / (1 - eps + TOUCH_TOL), so t = 314186
    built = []
    monkeypatch.setattr(nets, "_ring", lambda t: built.append(t))
    with pytest.raises(NetTooLargeError) as info:
        build_net_2d(unit_square(), 1e-5)
    assert "314186 rotations" in str(info.value)
    assert str(NET_LIMIT) in str(info.value)
    assert built == []


# ---------------------------------------------------------------------------
# build_net_sufficient


def test_sufficient_net_matches_spacing_formula_2d():
    # near-ball body: r/R ~ 1, eps = 0.1 -> t = ceil(pi / arcsin(0.05)) = 63
    net = build_net_sufficient(regular_polygon(256, 1.0), 0.1)
    assert net.certificate == SUFFICIENT_BOUND
    assert abs(len(net) - 63) <= 1


def test_sufficient_net_3d_builds_and_verifies():
    cube = VPolytope(np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                               for z in (-1, 1)], dtype=float))
    net = build_net_sufficient(cube, 0.55)
    assert net.dim == 3
    rep = verify_net(net, cube, trials=10, seed=2)
    assert rep.ok
    assert rep.worst_margin > 0.0


def test_sufficient_net_refuses_more_than_the_limit():
    # the unit cube at eps = 0.1 would take 164 * 164 * 83 = 2.2 M rotations
    cube = VPolytope(np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                               for z in (0, 1)], dtype=float))
    with pytest.raises(NetTooLargeError) as info:
        build_net_sufficient(cube, 0.1)
    assert isinstance(info.value, ValueError)
    assert "2232368" in str(info.value)
    assert str(NET_LIMIT) in str(info.value)


def test_sufficient_net_rejects_high_dimension():
    rng = np.random.default_rng(0)
    pts = np.vstack([np.eye(4), -np.eye(4), rng.normal(size=(8, 4)) * 0.1])
    with pytest.raises(UnsupportedDimensionError):
        build_net_sufficient(VPolytope(pts), 0.3)


# ---------------------------------------------------------------------------
# verify_net


def test_verify_square_net_100_trials():
    net = build_net_2d(unit_square(), EPS_SQUARE)
    rep = verify_net(net, unit_square(), trials=100, seed=0)
    assert rep.trials == 100
    assert rep.passes == 100
    assert rep.failures == 0
    assert rep.worst_margin >= -1e-9


def test_verify_trivial_net_on_rotation_invariant_body():
    body = regular_polygon(256, 1.0)
    net = RotationNet((Rotation.identity(2),), 0.1, SUFFICIENT_BOUND)
    rep = verify_net(net, body, trials=50, seed=1)
    assert rep.ok


def test_verify_flags_a_known_bad_net():
    # identity-only net cannot cover a quarter turn of a long thin rectangle
    rect = VPolytope(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 1.0]]))
    net = RotationNet((Rotation.identity(2),), 0.01, SUFFICIENT_BOUND)
    rep = verify_net(net, rect, rotations=[Rotation.from_angle(math.pi / 2.0)])
    assert rep.failures == 1
    assert rep.worst_margin < 0.0
    assert len(rep.failed_rotations) == 1


def test_doubled_nets_cover_improper_isometries():
    # D F for Haar rotations D are Haar-distributed improper isometries; the
    # triangle's plain net at eps 0.1 misses some of them
    cube = VPolytope(np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                               for z in (0, 1)], dtype=float))
    triangle = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.7]]))
    pentagon = jittered_polygon(np.random.default_rng(36), 5)
    for K, eps in ((unit_square(), 0.1), (triangle, 0.2), (triangle, 0.1), (pentagon, 0.2),
                   (cube, 0.9)):
        net = build_net_2d(K, eps) if K.dim == 2 else build_net_sufficient(K, eps)
        F = np.diag([-1.0] + [1.0] * (K.dim - 1))
        tests = [random_rotation(K.dim, seed=s).matrix @ F for s in range(64)]
        rep = verify_net(net.with_reflections(), K, rotations=tests)
        assert rep.ok, (K.vertices, eps, rep.worst_margin)
    tests = [random_rotation(2, seed=s).matrix @ np.diag([-1.0, 1.0]) for s in range(64)]
    assert not verify_net(build_net_2d(triangle, 0.1), triangle, rotations=tests).ok


def test_net_refuses_a_matrix_that_is_not_orthogonal():
    shear = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not orthogonal"):
        RotationNet(np.stack([np.eye(2), shear]), 0.1, EXACT_2D)


def test_net_requires_matching_dimension():
    net = build_net_2d(unit_square(), EPS_SQUARE)
    cube = VPolytope(np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                               for z in (0, 1)], dtype=float))
    with pytest.raises(ValueError):
        verify_net(net, cube, trials=1)
