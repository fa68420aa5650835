import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import arc_cap_overlap_grid
from hellyfit.geometry import (
    Cap,
    CircleArcs,
    DegenerateGeometryError,
    DimensionMismatchError,
    Placement,
    Rotation,
    SimilarityTransform,
    UnsupportedDimensionError,
    VPolytope,
    cap_measure_2d,
    convex_hull_2d,
    miniball,
    normalize_to_unit_ball,
    random_rotation,
    regular_polygon,
    shape_digest,
    unit_square,
)

RNG_SEED = 7


# ---------------------------------------------------------------------------
# miniball oracle: smallest ball over all boundary subsets of size <= d+1


def _circumball_of(S):
    S = np.asarray(S, dtype=float)
    p0 = S[0]
    Q = S[1:] - p0
    if Q.shape[0] == 0:
        return p0.copy(), 0.0
    G = Q @ Q.T
    rhs = 0.5 * np.einsum("ij,ij->i", Q, Q)
    try:
        lam = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        lam, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    c = p0 + lam @ Q
    r2 = float(np.max(np.einsum("ij,ij->i", S - c, S - c)))
    return c, math.sqrt(r2)


def miniball_oracle(points):
    """Exhaustive search over candidate boundary sets; exponential, tiny inputs only."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    best = (math.inf, None)
    for k in range(1, min(n, d + 1) + 1):
        for idx in itertools.combinations(range(n), k):
            c, r = _circumball_of(pts[list(idx)])
            dmax = math.sqrt(float(np.max(np.einsum("ij,ij->i", pts - c, pts - c))))
            if dmax <= r + 1e-9 and r < best[0]:
                best = (r, c)
    return best[1], best[0]


def test_miniball_matches_exhaustive_oracle_small():
    rng = np.random.default_rng(RNG_SEED)
    for trial in range(30):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        pts = rng.random((n, d))
        ball = miniball(pts, seed=trial)
        _, r_ref = miniball_oracle(pts)
        assert abs(ball.radius - r_ref) <= 1e-9 * max(1.0, r_ref)
        dmax = np.max(np.linalg.norm(pts - ball.center, axis=1))
        assert dmax <= ball.radius + 1e-9


def test_miniball_frozen_value_50_points():
    # frozen against the exhaustive oracle: rng(7).random((50, 3))
    pts = np.random.default_rng(RNG_SEED).random((50, 3))
    ball = miniball(pts)
    assert abs(ball.radius - 0.6863180369585453) <= 1e-9
    assert np.max(np.linalg.norm(pts - ball.center, axis=1)) <= ball.radius + 1e-9


def test_miniball_two_points_is_diameter():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    ball = miniball(pts)
    assert abs(ball.radius - 1.0) <= 1e-12
    assert np.allclose(ball.center, [1.0, 0.0], atol=1e-12)


def test_miniball_duplicate_points():
    pts = np.array([[1.0, 1.0]] * 5)
    ball = miniball(pts)
    assert ball.radius <= 1e-12
    assert np.allclose(ball.center, [1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_miniball_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(12, 2))
    perm = rng.permutation(12)
    b1 = miniball(pts)
    b2 = miniball(pts[perm])
    assert abs(b1.radius - b2.radius) <= 1e-9
    assert np.linalg.norm(b1.center - b2.center) <= 1e-7


def test_miniball_translation_equivariance():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(20, 3))
    shift = np.array([5.0, -2.0, 0.25])
    b1 = miniball(pts)
    b2 = miniball(pts + shift)
    assert abs(b1.radius - b2.radius) <= 1e-9
    assert np.allclose(b1.center + shift, b2.center, atol=1e-7)


# ---------------------------------------------------------------------------
# half-spaces and polytopes


def test_hull_halfspaces_2d_contains_exactly_the_hull():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    P = VPolytope(pts).hull_halfspaces()
    assert np.all(pts @ P.normals.T - P.offsets <= 1e-9)
    # points far outside must be excluded
    assert np.any(P.normals @ np.array([100.0, 0.0]) - P.offsets > 1e-9)
    # every facet is tight against some input point
    vals = pts @ P.normals.T - P.offsets
    assert np.all(np.max(vals, axis=0) >= -1e-9)


def test_hull_halfspaces_3d_matches_point_membership():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 3))
    P = VPolytope(pts).hull_halfspaces()
    assert np.all(np.linalg.norm(P.normals, axis=1) - 1.0 <= 1e-9)
    assert np.all(pts @ P.normals.T - P.offsets <= 1e-7)
    centroid = pts.mean(axis=0)
    assert np.all(P.normals @ centroid - P.offsets <= 1e-9)
    far = centroid + np.array([50.0, 0.0, 0.0])
    assert np.any(P.normals @ far - P.offsets > 1e-9)


def test_hull_halfspaces_unsupported_dimension():
    rng = np.random.default_rng(0)
    with pytest.raises(UnsupportedDimensionError):
        VPolytope(rng.normal(size=(9, 4))).hull_halfspaces()


def test_convex_hull_2d_square_with_interior_points():
    pts = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
        [0.5, 0.5], [0.25, 0.75],
    ])
    idx = convex_hull_2d(pts)
    assert sorted(idx.tolist()) == [0, 1, 2, 3]
    # counterclockwise: the shoelace signed area is positive
    V = pts[idx]
    area2 = np.sum(V[:, 0] * np.roll(V[:, 1], -1) - np.roll(V[:, 0], -1) * V[:, 1])
    assert area2 > 0


def test_degenerate_hull_raises():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegenerateGeometryError):
        convex_hull_2d(pts)


def test_dimension_mismatch_raises():
    P = unit_square().hull_halfspaces()
    with pytest.raises(DimensionMismatchError):
        P.translated(np.zeros(3))


# ---------------------------------------------------------------------------
# rotations


def test_rotation_from_angle_and_back():
    for theta in [-3.0, -0.5, 0.0, 0.7, 2.9]:
        R = Rotation.from_angle(theta)
        assert abs(((R.angle - theta + math.pi) % (2 * math.pi)) - math.pi) <= 1e-12


def test_rotation_validates_orthogonality_and_det():
    with pytest.raises(ValueError):
        Rotation(np.array([[1.0, 0.1], [0.0, 1.0]]))  # shear
    with pytest.raises(ValueError):
        Rotation(np.array([[2.0, 0.0], [0.0, 2.0]]))  # det 4
    flip = Rotation(np.array([[1.0, 0.0], [0.0, -1.0]]))  # reflection, det -1
    assert flip.compose(flip).angle == 0.0
    with pytest.raises(ValueError, match="proper"):
        flip.angle


def test_rotation_compose_inverse():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        R = random_rotation(d, seed=int(rng.integers(1 << 30)))
        S = random_rotation(d, seed=int(rng.integers(1 << 30)))
        T = R.compose(S).compose(S.inverse())
        assert np.linalg.norm(T.matrix - R.matrix, ord=2) <= 1e-9


def test_random_rotation_2d_uniform_angle_ks():
    pytest.importorskip("scipy")
    from scipy import stats

    n = 100_000
    angles = np.array([
        (random_rotation(2, seed=i).angle) % (2 * math.pi) for i in range(2000)
    ])
    # 2000 sampled rotations is plenty for a coarse KS sanity check
    ks = stats.kstest(angles / (2 * math.pi), "uniform")
    assert ks.pvalue > 0.01
    # larger batch drawn from one generator stream for the tight test
    rng = np.random.default_rng(21)
    big = rng.random(n)  # reference uniformity of the test itself
    assert stats.kstest(big, "uniform").statistic < 0.01


def test_random_rotation_3d_is_rotation_and_haar_marginal():
    pytest.importorskip("scipy")
    from scipy import stats

    axes = []
    for i in range(4000):
        R = random_rotation(3, seed=i)
        assert np.allclose(R.matrix @ R.matrix.T, np.eye(3), atol=1e-10)
        assert abs(np.linalg.det(R.matrix) - 1.0) <= 1e-10
        axes.append(R.matrix[:, 0])
    axes = np.asarray(axes)
    # first column of a Haar rotation is uniform on the sphere:
    # its z-coordinate is uniform on [-1, 1]
    z = (axes[:, 2] + 1.0) / 2.0
    assert stats.kstest(z, "uniform").pvalue > 0.001


# ---------------------------------------------------------------------------
# placements and normalization


def test_placement_apply_matches_manual():
    R = Rotation.from_angle(0.3)
    pl = Placement(np.array([1.0, -2.0]), 1.5, R)
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = pl.apply_points(pts)
    ref = np.array([1.0, -2.0]) + 1.5 * (pts @ R.matrix.T)
    assert np.allclose(out, ref, atol=1e-12)


def test_normalize_to_unit_ball_round_trip():
    K = regular_polygon(7, 3.0, phase=0.4).translated(np.array([5.0, -1.0]))
    Kn, tr = normalize_to_unit_ball(K)
    ball = miniball(Kn.vertices)
    assert abs(ball.radius - 1.0) <= 1e-9
    assert np.linalg.norm(ball.center) <= 1e-9
    back = tr.to_original(Kn.vertices)
    assert np.allclose(back, K.vertices, atol=1e-9)
    # a placement of the normalized body re-expressed as one of the original
    # body covers the same image set
    pl = Placement(np.array([0.1, 0.2]), 0.5, Rotation.from_angle(0.3))
    pl_orig = tr.placement_to_original(pl)
    assert np.allclose(pl.apply_points(Kn.vertices),
                       pl_orig.apply_points(K.vertices), atol=1e-8)


def test_shape_digest_invariance():
    K = regular_polygon(6, 2.0)
    K_shift = K.translated(np.array([3.0, 4.0]))
    K_scaled = K.scaled(2.5)
    assert shape_digest(K) == shape_digest(K_shift)
    assert shape_digest(K) == shape_digest(K_scaled)
    assert shape_digest(K) != shape_digest(regular_polygon(5, 2.0))


# ---------------------------------------------------------------------------
# circle arcs and cap measure


def test_arcs_measure_basic():
    arcs = CircleArcs(((0.0, 1.0), (2.0, 2.5)))
    assert abs(arcs.measure() - 1.5 / (2.0 * math.pi)) <= 1e-12
    assert abs(CircleArcs(((0.0, 2.0 * math.pi),)).measure() - 1.0) <= 1e-12


def test_arcs_cap_overlap_wraparound():
    full = CircleArcs(((0.0, 2.0 * math.pi),))
    cap = Cap(np.array([1.0, 0.0]), 0.5)  # directions u with <u, e1> >= -0.5
    w = math.acos(-0.5)
    got = full.cap_overlap(cap)
    assert abs(got - 2.0 * w) <= 1e-9


def test_arcs_and_caps_straddling_zero_match_angle_grid():
    # arcs and cap intervals that cross 2*pi, so the shifts -1 and +1 both count
    cells = 1 << 16
    tol = 4 * 2.0 * math.pi / cells
    for arcs in (CircleArcs(((5.8, 6.8),)), CircleArcs(((-0.3, 0.4), (2.0, 2.5))),
                 CircleArcs(((6.0, 6.2), (0.1, 5.9)))):
        for angle in (0.0, 0.05, -0.1, 2.0 * math.pi - 0.02, math.pi):
            for slack in (0.0, 0.5, 0.95):
                cap = Cap(np.array([math.cos(angle), math.sin(angle)]), slack)
                expected = arc_cap_overlap_grid(arcs, cap, cells)
                assert abs(arcs.cap_overlap(cap) - expected) <= tol
                pieces = arcs.restrict_to_cap(cap)
                assert abs(pieces.measure() * 2.0 * math.pi - expected) <= tol


def test_arcs_restrict_then_measure_matches_overlap():
    arcs = CircleArcs(((0.2, 1.0), (3.0, 5.5)))
    cap = Cap(np.array([math.cos(0.4), math.sin(0.4)]), 0.3)
    sub = arcs.restrict_to_cap(cap)
    assert abs(sub.measure() - arcs.cap_overlap(cap) / (2.0 * math.pi)) <= 1e-9


def test_arcs_rotation_preserves_measure():
    arcs = CircleArcs(((0.1, 0.9), (4.0, 6.0)))
    for t in (0.37, 2.0, -1.2, 11.0):
        assert abs(arcs.rotated(t).measure() - arcs.measure()) <= 1e-9


def test_arcs_angular_gap_and_chord():
    arcs = CircleArcs(((0.0, 1.0),))
    # direction at angle 2.0: nearest arc endpoint is at angle 1.0
    gap = arcs.angular_gap(2.0)
    assert abs(gap - 1.0) <= 1e-9
    p = np.array([math.cos(2.0), math.sin(2.0)])
    assert abs(arcs.chord_distance(p) - 2.0 * math.sin(0.5)) <= 1e-9
    # direction inside the arc has zero gap
    assert arcs.angular_gap(0.5) <= 1e-12


def test_cap_measure_2d_plain_polytope_is_zero():
    K = regular_polygon(5, 1.0)
    cap = Cap(np.array([1.0, 0.0]), 0.2)
    assert cap_measure_2d(K, cap) == 0.0


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=3),
       gaps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
       phase=st.floats(min_value=-2.0 * math.pi, max_value=4.0 * math.pi),
       cap_angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       slack=st.floats(min_value=0.0, max_value=1.2))
def test_arc_cap_measure_matches_angle_grid(lengths, gaps, phase, cap_angle, slack):
    # disjoint arcs laid end to end around the circle from `phase`, so the
    # last one often wraps past 2*pi; zero gaps make touching arcs
    gaps = gaps[:len(lengths)]
    unit = 2.0 * math.pi / (sum(lengths) + sum(gaps))
    arcs, start = [], phase
    for length, gap in zip(lengths, gaps):
        arcs.append((start, start + length * unit))
        start += (length + gap) * unit
    arcs = CircleArcs(tuple(arcs))
    cap = Cap(np.array([math.cos(cap_angle), math.sin(cap_angle)]), slack)
    cells = 1 << 18
    expected = arc_cap_overlap_grid(arcs, cap, cells)
    # each of the at most 2 * len(arcs) pieces is off by at most one cell
    tol = 2 * len(arcs.arcs) * 2.0 * math.pi / cells
    assert abs(arcs.cap_overlap(cap) - expected) <= tol
    assert abs(arcs.restrict_to_cap(cap).measure() * 2.0 * math.pi - expected) <= tol
