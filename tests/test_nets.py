import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import grid_scan_max_angle
from hellyfit import nets
from hellyfit.geometry import (
    DegenerateGeometryError,
    Rotation,
    UnsupportedDimensionError,
    VPolytope,
    convex_hull_2d,
    miniball,
    regular_polygon,
    unit_square,
)
from hellyfit.lab import DEMO_NET_EPS, cap_body
from hellyfit.lp import beta_fixed_rotation, chebyshev_inradius, fit_check
from hellyfit.nets import (
    CEIL_SLACK,
    EXACT_2D,
    NET_LIMIT,
    SUFFICIENT_BOUND,
    TOUCH_TOL,
    NetTooLargeError,
    RotationNet,
    _clean_radius,
    _margin_fn,
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
        vals = [max_angle_2d(K, e, tol=2e-3) for e in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-6


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


def test_reduced_margin_matches_full_lp():
    rng = np.random.default_rng(4)
    for K in (unit_square(), regular_polygon(5, 1.0, phase=0.2), random_hexagon()):
        PK = K.hull_halfspaces()
        margin = _margin_fn(K, 0.2, PK)
        for theta in rng.uniform(-math.pi, math.pi, 6):
            res = beta_fixed_rotation(K, Rotation.from_angle(float(theta)), PK)
            assert abs(margin(float(theta)) - (res.value - 0.8)) <= 1e-10


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


def count_margin_lps(monkeypatch):
    calls = [0]
    solve = nets.beta_fixed_rotation

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(nets, "beta_fixed_rotation", counting)
    return calls


def test_max_angle_matches_plain_grid_scan():
    # skipping proven-clean grid points leaves alpha, and so t, bit-identical
    rng = np.random.default_rng(2024)
    cases = [(regular_polygon(3, 1.0), 0.4, 1e-3), (unit_square(), EPS_SQUARE, 1e-3)]
    while len(cases) < 10:
        m, eps = int(rng.integers(3, 9)), float(rng.uniform(0.05, 0.35))
        K = jittered_polygon(rng, m)
        if has_contact(K, eps):
            cases.append((K, eps, 2e-3))
    for K, eps, tol in cases:
        alpha = grid_scan_max_angle(K, eps, tol)
        assert alpha < math.pi
        assert max_angle_2d(K, eps, tol) == alpha, (len(K), eps)
        t = max(1, int(math.ceil(math.pi / alpha - CEIL_SLACK)))
        assert len(build_net_2d(K, eps, tol)) == t


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       theta=st.floats(min_value=-math.pi, max_value=math.pi),
       delta=st.floats(min_value=-1.0, max_value=1.0),
       frac=st.floats(min_value=-1.0, max_value=1.0),
       eps=st.floats(min_value=0.01, max_value=0.6))
def test_clean_radius_bound(seed, theta, delta, frac, eps):
    # beta(theta + delta) >= beta(theta) r / (r + beta(theta) |delta| R), and
    # every rotation within the clean radius keeps the margin above TOUCH_TOL
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
    radius = _clean_radius(b, 1.0 - eps, r / R)
    if radius > 0.0:
        margin = _margin_fn(K, eps, PK)
        assert margin(theta + frac * radius) > TOUCH_TOL


def test_full_slack_bodies_need_no_scan(monkeypatch):
    calls = count_margin_lps(monkeypatch)
    for K, eps in ((regular_polygon(64, 1.0), 0.05),
                   (cap_body(2, margin=math.pi / 4), DEMO_NET_EPS)):
        calls[0] = 0
        assert max_angle_2d(K, eps) == math.pi
        assert calls[0] <= 2


def test_square_scan_solves_few_margin_lps(monkeypatch):
    # the plain scan solves 1595 margin LPs here
    calls = count_margin_lps(monkeypatch)
    max_angle_2d(unit_square(), EPS_SQUARE)
    assert calls[0] < 400


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
        assert np.array_equal(ring[-1].matrix, np.eye(2))


def probed_net_size(K, eps):
    # t from full-precision max_angle_2d, then build_net_2d's +-pi/t probes
    t = _net_size(max_angle_2d(K, eps))
    PK = K.hull_halfspaces()
    for _ in range(3):
        if all(fit_check(K, Rotation.from_angle(s * math.pi / t), 1.0 - eps, PK)
               for s in (1.0, -1.0)):
            break
        t += 1
    return t


def test_net_size_is_that_of_the_full_precision_angle(monkeypatch):
    # build_net_2d stops bisecting once t is decided; the scan's t (the first
    # probe is at pi/t) and the probed net size must be the ones the full
    # BISECT_TOL bisection gives.  The polygons carry fit_cli's jitter of 0.1.
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
    # the full bisection solves 71 margin LPs here, the net's 31
    calls = count_margin_lps(monkeypatch)
    K = regular_polygon(3, 1.0)
    max_angle_2d(K, 0.4)
    full, calls[0] = calls[0], 0
    build_net_2d(K, 0.4)
    assert calls[0] <= full - 30


def test_planar_net_refuses_more_than_the_limit(monkeypatch):
    # the square at eps = 1e-5 has slack angle 1e-5 rad, so t = 314183
    built = []
    monkeypatch.setattr(nets, "_ring", lambda t: built.append(t))
    with pytest.raises(NetTooLargeError) as info:
        build_net_2d(unit_square(), 1e-5)
    assert "314183 rotations" in str(info.value)
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


def test_net_requires_matching_dimension():
    net = build_net_2d(unit_square(), EPS_SQUARE)
    cube = VPolytope(np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                               for z in (0, 1)], dtype=float))
    with pytest.raises(ValueError):
        verify_net(net, cube, trials=1)
