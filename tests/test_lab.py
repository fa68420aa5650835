"""Cap bodies, tangent families, and the strict-inflation demonstrations."""

import json
import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hellyfit.geometry import Cap, Rotation, cap_measure_2d, miniball
from hellyfit.lab import (
    DEMO_NET_EPS,
    INFLATION_BUDGET,
    CapBody,
    SearchFailure,
    TangentFamily,
    avoid_rotation,
    cap_body,
    inflation_search,
    lower_bound_demo,
)
from hellyfit.lp import beta_fixed_rotation

from _oracles import highs_scale

TWO_PI = 2.0 * math.pi
MEASURE_TOL = 1e-9
RADIUS_TOL = 1e-6
RECHECK_TOL = 1e-9

VERDICT_KEYS = {"n", "delta", "subsets_checked", "full_family_beta",
                "verdict", "failing_subset"}


# ---------------------------------------------------------------------------
# cap bodies


def test_cap_body_width_and_measure_follow_the_recipe():
    for n, margin in [(2, 0.3), (3, math.pi / 6), (4, 0.1), (6, 0.5)]:
        body = cap_body(n, margin, m=64)
        want = math.pi - TWO_PI / n + margin
        assert body.removed_width == pytest.approx(want, abs=1e-12)
        assert body.retained_measure == pytest.approx((TWO_PI - want) / TWO_PI,
                                                      abs=1e-12)


def test_cap_body_three_constraints_overlap_is_a_quarter():
    body = cap_body(3, math.pi / 6, m=128)
    assert body.removed_width == pytest.approx(math.pi / 2, abs=1e-12)
    hole_side = Cap(np.array([1.0, 0.0]), 0.0)
    overlap = cap_measure_2d(body, hole_side)
    assert overlap == pytest.approx(0.25, abs=MEASURE_TOL)
    assert overlap < 1.0 / 3.0


def test_cap_body_two_constraints_overlap_is_under_half():
    body = cap_body(2, 0.2, m=128)
    overlap = cap_measure_2d(body, Cap(np.array([1.0, 0.0]), 0.0))
    assert overlap == pytest.approx((math.pi - 0.2) / TWO_PI, abs=MEASURE_TOL)
    assert overlap < 0.5


def test_cap_body_rejects_bad_recipes():
    with pytest.raises(ValueError):
        cap_body(1, 0.1)
    with pytest.raises(ValueError):
        cap_body(3, 0.0)
    with pytest.raises(ValueError):
        cap_body(3, -0.2)
    with pytest.raises(ValueError):
        cap_body(3, TWO_PI / 3)
    with pytest.raises(ValueError):
        cap_body(3, 0.1, m=0)


def test_cap_body_width_must_stay_inside_the_circle():
    with pytest.raises(ValueError):
        CapBody.of_width(0.0, TWO_PI)
    with pytest.raises(ValueError):
        CapBody.of_width(0.0, 0.0)
    with pytest.raises(ValueError):
        CapBody.of_width(0.0, -1.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=7),
       frac=st.floats(min_value=0.05, max_value=0.95))
def test_cap_body_miniball_is_the_unit_ball(n, frac):
    body = cap_body(n, frac * TWO_PI / n, m=64)
    ball = miniball(body.vertices)
    assert 1.0 - RADIUS_TOL <= ball.radius <= 1.0 + 1e-9


def test_cap_body_json_round_trip():
    body = cap_body(3, math.pi / 6, m=128)
    back = CapBody.from_json({"dim": 2, "arc_body": {
        "removed_center_angle": body.removed_center_angle,
        "removed_width": body.removed_width,
        "vertex_count": len(body)}})
    assert back.removed_center_angle == body.removed_center_angle
    assert back.removed_width == body.removed_width
    assert len(back) == len(body)
    assert np.allclose(back.vertices, body.vertices, atol=1e-12)


# ---------------------------------------------------------------------------
# tangent families


def test_tangent_family_offsets_are_exactly_one():
    rng = np.random.default_rng(5)
    fam = TangentFamily.at_angles(rng.uniform(0.0, TWO_PI, size=9))
    P = fam.halfspaces
    assert np.all(P.offsets == 1.0)
    assert np.allclose(P.normals, fam.contact_points, atol=0)
    assert np.allclose(np.linalg.norm(fam.contact_points, axis=1), 1.0,
                       atol=1e-12)


def test_tangent_family_take_picks_contacts():
    fam = TangentFamily.at_angles(np.array([0.0, 1.0, 2.0, 3.0]))
    sub = fam.take([0, 2])
    assert len(sub) == 2
    assert np.allclose(sub.contact_points, fam.contact_points[[0, 2]])


def test_tangent_family_rejects_points_off_the_circle():
    with pytest.raises(ValueError):
        TangentFamily(np.array([[0.5, 0.0]]))
    with pytest.raises(ValueError):
        TangentFamily(np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# avoiding rotations


def test_avoid_rotation_clears_the_arc():
    body = cap_body(3, math.pi / 6, m=128)
    pts = np.array([[0.0, 1.0]])
    rotation, dist = avoid_rotation(body, pts, seed=11)
    assert dist > 0.0
    moved = body.boundary_arcs.rotated(rotation.angle)
    assert moved.chord_distance(pts[0]) == pytest.approx(dist, abs=1e-12)
    assert isinstance(rotation, Rotation)


def test_avoid_rotation_acceptance_rate_matches_the_arc_measure():
    body = CapBody.of_width(0.0, math.pi + 0.1, m=128)
    mu = body.retained_measure
    pts = np.array([[1.0, 0.0]])
    wins = 0
    for s in range(1000):
        try:
            avoid_rotation(body, pts, max_tries=1, seed=s)
            wins += 1
        except SearchFailure:
            pass
    p_hat = wins / 1000.0
    assert p_hat >= 1.0 - mu - 0.05
    # expected tries for the full sampler is 1/p; the union bound says
    # p >= 1 - n*mu, and for a single point that bound is exact
    expected = 1.0 / (1.0 - mu)
    assert 0.5 * expected <= 1.0 / p_hat <= 1.5 * expected


def test_avoid_rotation_reports_spent_budget():
    body = CapBody.of_width(0.0, 1e-3, m=16)
    with pytest.raises(SearchFailure) as info:
        avoid_rotation(body, np.array([[1.0, 0.0]]), max_tries=4, seed=0)
    assert info.value.tries == 4
    assert info.value.best >= 0.0


def test_avoid_rotation_rejects_saturated_measure():
    body = cap_body(3, math.pi / 6, m=64)
    pts = TangentFamily.at_angles(np.array([0.0, 2.0, 4.0])).contact_points
    with pytest.raises(ValueError):
        avoid_rotation(body, pts)


# ---------------------------------------------------------------------------
# inflation searches


def test_inflation_search_beats_three_tangents():
    body = cap_body(3, math.pi / 6, m=128)
    fam = TangentFamily.at_angles(np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3]))
    result = inflation_search(body, fam, seed=0)
    assert result.delta2 > 0.0
    assert not result.capped
    delta2, placement = result.delta2, result.placement
    assert placement.scale == pytest.approx(1.0 + delta2, abs=1e-12)
    check = beta_fixed_rotation(body, placement.rotation, fam.halfspaces, seed=99)
    assert check.value >= 1.0 + delta2 - RECHECK_TOL


def count_lps(monkeypatch):
    """Count the seidel_lp calls that lab makes."""
    from hellyfit import lab

    calls = [0]
    plain = lab.seidel_lp

    def counting(*args, **kwargs):
        calls[0] += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(lab, "seidel_lp", counting)
    return calls


def test_inflation_search_handles_opposite_tangent_pairs(monkeypatch):
    # the contact angles leave no gap above pi, so the boxed LP alone sizes it
    body = cap_body(3, math.pi / 6, m=128)
    fam = TangentFamily.at_angles(np.array([0.3, 0.3 + math.pi / 6,
                                            0.3 + math.pi]))
    calls = count_lps(monkeypatch)
    result = inflation_search(body, fam, seed=1)
    assert calls[0] == 1
    assert result.delta2 > 0.0
    assert not result.capped
    check = beta_fixed_rotation(body, result.placement.rotation,
                                fam.halfspaces, seed=7)
    assert check.value >= 1.0 + result.delta2 - RECHECK_TOL


def test_inflation_search_refuses_a_copy_that_leaves_a_half_plane(monkeypatch):
    # negative control for the containment gate: every boxed solve's
    # witness is moved 1e-6 outward across its tightest half-plane, so no
    # copy the search finds may be returned
    from hellyfit import lab

    body = cap_body(3, math.pi / 6, m=128)
    fam = TangentFamily.at_angles(np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3]))
    n = len(fam)
    plain = lab.seidel_lp

    def outward(inst, seed=0):
        res = plain(inst, seed=seed)
        x = res.witness.copy()
        i = int(np.argmin(inst.bounds[:n] - inst.rows[:n] @ x))
        x[:2] += 1e-6 * inst.rows[i, :2]
        return replace(res, witness=x)

    monkeypatch.setattr(lab, "seidel_lp", outward)
    with pytest.raises(SearchFailure):
        inflation_search(body, fam, seed=0)


def test_inflation_search_caps_a_single_half_plane(monkeypatch):
    # the contact angles alone decide a capped subfamily, with no LP
    body = cap_body(3, math.pi / 6, m=128)
    fam = TangentFamily.at_angles(np.array([1.1]))
    calls = count_lps(monkeypatch)
    result = inflation_search(body, fam, seed=0)
    assert calls[0] == 0
    assert result.capped
    assert result.delta2 == pytest.approx(INFLATION_BUDGET - 1.0, rel=1e-12)
    assert result.placement.scale == pytest.approx(INFLATION_BUDGET, rel=1e-12)


def _demo_search(demo_seed, samples, subset, n=3):
    """Re-run the inflation search that lower_bound_demo makes for one subset.

    Rebuilds the demo's body, phase and per-subset search seed the way
    lower_bound_demo derives them from its seed.
    """
    root = int(demo_seed) % (2 ** 63)
    rng = np.random.default_rng(np.random.SeedSequence([root, 0]))
    body = cap_body(n, margin=math.pi / (2 * n))
    phase = float(rng.uniform(0.0, TWO_PI))
    fam = TangentFamily.at_angles(phase + TWO_PI * np.arange(samples) / samples)
    sub = fam.take(subset)
    seed = int(np.random.SeedSequence([root, 1, *subset]).generate_state(1)[0])
    return body, sub.halfspaces, inflation_search(body, sub, seed=seed)


def _leaves_by(body, placement, P):
    pts = placement.apply_points(body.vertices)
    return float((P.normals @ pts.T - P.offsets[:, None]).max())


def test_inflation_search_caps_an_unbounded_subfamily():
    # contacts leaving an angular gap of 1.2 pi cannot bound the scale; the
    # boxed re-solve once reported this subfamily at a finite 5.8e5
    body, P, result = _demo_search(1523569759, 10, (0, 3, 9))
    assert highs_scale(body, result.placement.rotation, P) == math.inf
    assert result.capped
    assert result.placement.scale == pytest.approx(INFLATION_BUDGET, rel=1e-12)
    assert _leaves_by(body, result.placement, P) <= 1e-9


def test_inflation_search_boxed_path_matches_highs():
    # the scale is bounded but a translation ray recedes: the copy can slide
    # along a strip, which the scale LP reads as optimal, not unbounded; the
    # boxed placement once left a half-plane by 2.4e-4 at a scale 1.6e-4
    # above the optimum
    body, P, result = _demo_search(1523569759, 10, (0, 2, 5))
    assert not result.capped
    ref = highs_scale(body, result.placement.rotation, P)
    free = beta_fixed_rotation(body, result.placement.rotation, P)
    assert free.status == "optimal"
    assert abs(free.value - ref) <= 1e-9 * ref
    assert abs(result.placement.scale - ref) <= 1e-9 * ref
    assert _leaves_by(body, result.placement, P) <= 1e-9


def test_inflation_placements_stay_inside_on_every_demo_subset():
    # every 3-subset of three 10-line demos; the boxed re-solve with offsets
    # 2e6 once left subset (2, 5, 7) of the first seed by 2.7e-9, and every
    # uncapped scale is HiGHS's, also where the copy can slide along a strip
    capped = 0
    for demo_seed in (1523569759, 106169992, 2644710988):
        for subset in combinations(range(10), 3):
            body, P, result = _demo_search(demo_seed, 10, subset)
            assert result.delta2 > 0.0
            if result.capped:
                capped += 1
                continue
            tol = 1e-9 * max(1.0, float(np.abs(P.offsets).max()))
            assert _leaves_by(body, result.placement, P) <= tol, (demo_seed, subset)
            ref = highs_scale(body, result.placement.rotation, P)
            assert abs(result.placement.scale - ref) <= 1e-12 * ref, (demo_seed, subset)
    assert capped == 180


def test_inflation_search_caps_more_contacts_than_the_body_is_tuned_for(monkeypatch):
    # four contacts leaving a gap of 1.2 pi against a body tuned for three:
    # the scale is unbounded, so the budget placement needs no clearing
    # rotation, while four contacts that bound the scale exhaust the recipe
    body = cap_body(3, math.pi / 6, m=128)
    fam = TangentFamily.at_angles(0.5 + 0.8 * math.pi * np.arange(4) / 3)
    calls = count_lps(monkeypatch)
    result = inflation_search(body, fam, seed=0)
    assert calls[0] == 0
    assert result.capped
    assert result.rotation_tries == 0
    assert result.placement.scale == INFLATION_BUDGET
    assert highs_scale(body, result.placement.rotation, fam.halfspaces) == math.inf
    assert _leaves_by(body, result.placement, fam.halfspaces) <= 1e-9
    with pytest.raises(SearchFailure):
        inflation_search(body, TangentFamily.at_angles(np.arange(4) * math.pi / 2))


@settings(max_examples=150, deadline=None)
@given(angles=st.lists(st.floats(min_value=0.0, max_value=TWO_PI),
                       min_size=1, max_size=6),
       antipodes=st.integers(min_value=0, max_value=3),
       theta=st.floats(min_value=0.0, max_value=TWO_PI))
def test_capped_is_highs_unbounded_on_random_tangent_subfamilies(angles, antipodes,
                                                                 theta):
    # the first `antipodes` contacts (at most 6 in all) also get their exact
    # opposite, which makes a strip and so bounds the scale; elsewhere a
    # widest gap within 1e-4 of pi is left out, as there the verdict is set
    # by each solver's tolerance rather than by the contact angles
    body = cap_body(3, math.pi / 6, m=64)
    U = TangentFamily.at_angles(np.array(angles)).contact_points
    k = min(antipodes, len(U), 6 - len(U))
    fam = TangentFamily(np.vstack([U, -U[:k]]))
    a = np.sort(fam.angles)
    gap = float(np.diff(np.append(a, a[0] + TWO_PI)).max())
    assume(k > 0 or abs(gap - math.pi) > 1e-4)
    try:
        result = inflation_search(body, fam, seed=0)
    except SearchFailure:
        result = None  # only the recipe for bounded subfamilies can run out
    capped = result is not None and result.capped
    P = fam.halfspaces
    assert capped == (highs_scale(body, Rotation.from_angle(theta), P) == math.inf)
    if k > 0:
        assert not capped
    if capped:
        assert _leaves_by(body, result.placement, P) <= 1e-9


# ---------------------------------------------------------------------------
# the full demonstration


def test_lower_bound_demo_three_constraints_passes():
    out = lower_bound_demo(3, 12, seed=0)
    assert set(out) == VERDICT_KEYS
    assert out["verdict"] == "pass"
    assert out["failing_subset"] is None
    assert out["subsets_checked"] == math.comb(12, 3)
    assert out["delta"] > 0.0
    assert out["full_family_beta"] <= 1.0 + 1e-3
    json.dumps(out)


def test_lower_bound_demo_two_constraints_passes():
    out = lower_bound_demo(2, 8, seed=0)
    assert out["verdict"] == "pass"
    assert out["subsets_checked"] == math.comb(8, 2)
    assert out["delta"] > 0.0
    assert out["full_family_beta"] <= 1.0 + 1e-3


def test_demo_picture_copy_is_from_a_checked_subset(monkeypatch):
    # above SUBSET_CAP the demo samples its subsets; the copy it hands to
    # the picture is its own first uncapped inflation, not a search of the
    # first subset in plain order
    from hellyfit import lab

    monkeypatch.setattr(lab, "SUBSET_CAP", 6)
    found = []
    plain = lab.inflation_search

    def recording(K, family, seed=0):
        found.append(plain(K, family, seed=seed))
        return found[-1]

    monkeypatch.setattr(lab, "inflation_search", recording)
    K, family, verdict, placement = lab._demo_run(3, 9, 5)
    assert verdict["subsets_checked"] == 6 == len(found)
    assert placement is next(r for r in found if not r.capped).placement
    assert verdict == lower_bound_demo(3, 9, seed=5)


def test_lower_bound_demo_rejects_short_samples():
    with pytest.raises(ValueError):
        lower_bound_demo(4, 3)
    with pytest.raises(ValueError):
        lower_bound_demo(1, 5)


def test_demo_net_accuracy_constant_is_fine_enough():
    # the full-family check needs net error below the 1e-3 acceptance slack
    assert DEMO_NET_EPS <= 0.05
