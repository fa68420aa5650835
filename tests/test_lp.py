import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import lp_vertex_oracle, square_fit_scale, vertex_beta_instance
from hellyfit.geometry import (
    HPolytope,
    Rotation,
    UnsupportedDimensionError,
    VPolytope,
    box_polytope,
    convex_hull_2d,
    regular_polygon,
    unit_square,
)
from hellyfit.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    InfeasibleProblem,
    LpInstance,
    UnboundedProblem,
    beta_fixed_rotation,
    build_beta_instance,
    chebyshev_inradius,
    fit_check,
    seidel_lp,
)


def _square_h(lo=0.0, hi=1.0):
    return box_polytope(np.array([lo, lo]), np.array([hi, hi]))


# ---------------------------------------------------------------------------
# fixed vectors


def test_one_variable_upper_bound():
    inst = LpInstance(np.array([[1.0]]), np.array([3.0]), np.array([1.0]))
    res = seidel_lp(inst)
    assert res.status == OPTIMAL
    assert abs(res.value - 3.0) <= 1e-9
    assert abs(res.witness[0] - 3.0) <= 1e-9


def test_contradictory_pair_is_infeasible():
    inst = LpInstance(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]), np.array([1.0]))
    res = seidel_lp(inst)
    assert res.status == INFEASIBLE
    with pytest.raises(InfeasibleProblem):
        res.require_optimal()


def test_unbounded_direction():
    inst = LpInstance(np.array([[-1.0, 0.0]]), np.array([0.0]), np.array([1.0, 0.0]))
    res = seidel_lp(inst)
    assert res.status == UNBOUNDED
    with pytest.raises(UnboundedProblem):
        res.require_optimal()


def test_zero_row_constraints():
    # 0 <= 1 is vacuous, 0 <= -1 is impossible
    inst = LpInstance(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      np.array([1.0, 2.0, 2.0]), np.array([1.0, 1.0]))
    res = seidel_lp(inst)
    assert res.status == OPTIMAL and abs(res.value - 4.0) <= 1e-9
    bad = LpInstance(np.array([[0.0, 0.0]]), np.array([-1.0]), np.array([1.0, 0.0]))
    assert seidel_lp(bad).status == INFEASIBLE


def test_too_many_variables_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(UnsupportedDimensionError):
        seidel_lp(LpInstance(rng.normal(size=(4, 9)), np.ones(4), np.ones(9)))


def test_rotated_square_in_unit_square():
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    P = _square_h()
    res = beta_fixed_rotation(K, Rotation.from_angle(math.pi / 4.0), P)
    assert res.ok
    assert abs(res.value - math.sqrt(2.0) / 2.0) <= 1e-9
    assert np.allclose(res.placement.translation, [0.5, 0.5], atol=1e-8)


def test_axis_square_in_double_box():
    K = unit_square()
    P = _square_h(0.0, 2.0)
    res = beta_fixed_rotation(K, Rotation.identity(2), P)
    assert res.ok and abs(res.value - 2.0) <= 1e-9


def test_square_fit_matches_closed_form_across_angles():
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    P = _square_h()
    for theta in np.linspace(0.0, 2.0 * math.pi, 37):
        res = beta_fixed_rotation(K, Rotation.from_angle(float(theta)), P,
                                  canonical=False)
        assert res.ok
        assert abs(res.value - square_fit_scale(float(theta))) <= 1e-9


def test_chebyshev_unit_square():
    out = chebyshev_inradius(_square_h())
    assert out.status == OPTIMAL
    assert abs(out.radius - 0.5) <= 1e-12
    assert np.allclose(out.center, [0.5, 0.5], atol=1e-9)


def test_chebyshev_unit_side_triangle():
    # side-1 equilateral triangle has inradius 1 / (2 sqrt(3))
    V = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))
    out = chebyshev_inradius(V.hull_halfspaces())
    assert out.status == OPTIMAL
    assert abs(out.radius - 1.0 / (2.0 * math.sqrt(3.0))) <= 1e-12


def test_chebyshev_unbounded_and_infeasible():
    # a single half-plane admits arbitrarily large balls
    P = HPolytope.from_rows(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert chebyshev_inradius(P).status == UNBOUNDED
    # empty container: x <= 0 and x >= 1
    Q = HPolytope.from_rows(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
    out = chebyshev_inradius(Q)
    assert out.status == INFEASIBLE
    assert out.radius < 0  # reported as the (negative) best signed depth


def test_beta_instance_row_count_contract():
    K = regular_polygon(5, 1.0)
    P = regular_polygon(7, 2.0).hull_halfspaces()
    inst = build_beta_instance(K, Rotation.identity(2), P)
    assert inst.rows.shape == (len(P) + 1, 3)
    assert inst.dim_vars == 3


def _random_polygon(rng, count, radius):
    pts = rng.normal(size=(count, 2)) * radius
    return VPolytope(pts[convex_hull_2d(pts)])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_support_rows_match_vertex_rows(seed):
    # the n + 1 support-function rows and the n * m vertex rows pose one LP:
    # same status, same value, and each form's tight half-spaces alone
    # reproduce that value
    rng = np.random.default_rng(seed)
    K = _random_polygon(rng, int(rng.integers(3, 9)), 1.0)
    P = _random_polygon(rng, int(rng.integers(4, 13)), 3.0).hull_halfspaces()
    P = P.translated(rng.normal(size=2))
    if rng.random() < 0.3:
        # dropping facets may leave a gap of more than pi: unbounded scale
        keep = np.sort(rng.choice(len(P), size=int(rng.integers(1, len(P))),
                                  replace=False))
        P = P.take(keep)
    A = Rotation.from_angle(float(rng.uniform(0.0, 2.0 * math.pi)))
    lp_seed = int(rng.integers(1000))
    vert = seidel_lp(vertex_beta_instance(K, A, P), seed=lp_seed)
    supp = beta_fixed_rotation(K, A, P, seed=lp_seed, canonical=False)
    assert supp.status == vert.status
    if vert.status != OPTIMAL:
        return
    value = supp.value
    assert abs(value - vert.value) <= 1e-9 * max(1.0, abs(value))
    vert_tight = sorted({int(r) // len(K) for r in vert.tight_set})
    for tight in (vert_tight, list(supp.tight_rows)):
        sub = beta_fixed_rotation(K, A, P.take(tight), canonical=False)
        assert sub.ok, (tight, sub.status)
        assert abs(sub.value - value) <= 1e-9 * max(1.0, abs(value))


def test_beta_empty_container_reports_infeasible():
    K = unit_square()
    Q = HPolytope.from_rows(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
    res = beta_fixed_rotation(K, Rotation.identity(2), Q)
    assert res.status == INFEASIBLE and res.value == 0.0


def test_beta_unbounded_container():
    K = unit_square()
    P = HPolytope.from_rows(np.array([[0.0, -1.0]]), np.array([0.0]))
    res = beta_fixed_rotation(K, Rotation.identity(2), P)
    assert res.status == UNBOUNDED and math.isinf(res.value)


def test_fit_check_respects_scale():
    K = unit_square()
    P = _square_h(0.0, 2.0)
    I = Rotation.identity(2)
    assert fit_check(K, I, 1.999999999, P)
    assert fit_check(K, I, 2.0, P)
    assert not fit_check(K, I, 2.01, P)


# ---------------------------------------------------------------------------
# canonicalization and seed independence


def test_value_and_placement_are_seed_independent():
    rng = np.random.default_rng(42)
    K = regular_polygon(5, 1.0, phase=0.3)
    P = regular_polygon(9, 2.5, phase=0.1).hull_halfspaces()
    base = beta_fixed_rotation(K, Rotation.from_angle(0.2), P, seed=0)
    for seed in (1, 2, 3, 17, 91):
        res = beta_fixed_rotation(K, Rotation.from_angle(0.2), P, seed=seed)
        assert abs(res.value - base.value) <= 1e-9
        assert np.allclose(res.placement.translation, base.placement.translation,
                           atol=1e-7)


def test_canonical_translation_is_lex_min_on_degenerate_strip():
    # sliding freedom: a unit square inside a wide box has many optimal
    # placements; the canonical witness must sit at the lexicographic minimum
    K = unit_square()
    P = box_polytope(np.array([0.0, 0.0]), np.array([5.0, 1.0]))
    res = beta_fixed_rotation(K, Rotation.identity(2), P, seed=3)
    assert abs(res.value - 1.0) <= 1e-9
    assert np.allclose(res.placement.translation, [0.0, 0.0], atol=1e-7)


# ---------------------------------------------------------------------------
# invariance under rigid motions and scaling


def test_beta_translation_equivariance():
    K = regular_polygon(6, 1.0)
    P = regular_polygon(8, 3.0, phase=0.2).hull_halfspaces()
    t = np.array([4.0, -7.0])
    res0 = beta_fixed_rotation(K, Rotation.from_angle(0.5), P)
    res1 = beta_fixed_rotation(K, Rotation.from_angle(0.5), P.translated(t))
    assert abs(res0.value - res1.value) <= 1e-9
    assert np.allclose(res0.placement.translation + t, res1.placement.translation,
                       atol=1e-7)


def test_beta_scale_equivariance():
    K = regular_polygon(4, 1.0, phase=0.1)
    P = regular_polygon(6, 2.0).hull_halfspaces()
    res0 = beta_fixed_rotation(K, Rotation.from_angle(0.9), P)
    res1 = beta_fixed_rotation(K, Rotation.from_angle(0.9), P.scaled(3.0))
    assert abs(3.0 * res0.value - res1.value) <= 1e-8


def test_beta_joint_rotation_invariance():
    K = regular_polygon(5, 1.0)
    P = regular_polygon(7, 2.0, phase=0.4).hull_halfspaces()
    S = Rotation.from_angle(1.1)
    A = Rotation.from_angle(0.3)
    res0 = beta_fixed_rotation(K, A, P)
    res1 = beta_fixed_rotation(K, S.compose(A), P.rotated(S))
    assert abs(res0.value - res1.value) <= 1e-9


# ---------------------------------------------------------------------------
# randomized battles against the vertex-enumeration oracle


def _random_instance(rng, max_rows=12, max_vars=3):
    d = int(rng.integers(1, max_vars + 1))
    n = int(rng.integers(0, max_rows + 1))
    A = rng.normal(size=(n, d))
    kind = rng.integers(0, 3)
    if kind == 0:
        b = np.abs(rng.normal(size=n)) + 0.1   # origin strictly feasible
    elif kind == 1:
        b = rng.normal(size=n)                 # may be infeasible
    else:
        b = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0], size=n)
    c = rng.normal(size=d)
    return LpInstance(A, b, c)


def test_seidel_matches_vertex_oracle_battery():
    rng = np.random.default_rng(2024)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for trial in range(150):
        inst = _random_instance(rng)
        ref_status, ref_value = lp_vertex_oracle(inst)
        res = seidel_lp(inst, seed=trial)
        assert res.status == ref_status, f"trial {trial}: {res.status} vs {ref_status}"
        if ref_status == OPTIMAL:
            assert abs(res.value - ref_value) <= 1e-9 * max(1.0, abs(ref_value)), \
                f"trial {trial}: {res.value} vs {ref_value}"
            tol = 1e-9 * np.maximum(1.0, np.abs(inst.bounds)) \
                + 1e-12 * (np.abs(inst.rows) @ np.abs(res.witness))
            assert np.all(inst.rows @ res.witness <= inst.bounds + tol)
        statuses[ref_status] += 1
    # the battery must actually exercise every status
    assert min(statuses.values()) >= 5


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_seidel_oracle_agreement_property(seed):
    rng = np.random.default_rng(seed)
    inst = _random_instance(rng, max_rows=10, max_vars=3)
    ref_status, ref_value = lp_vertex_oracle(inst)
    res = seidel_lp(inst, seed=seed % 1000)
    assert res.status == ref_status
    if ref_status == OPTIMAL:
        assert abs(res.value - ref_value) <= 1e-8 * max(1.0, abs(ref_value))


def test_tight_set_rows_are_actually_tight():
    rng = np.random.default_rng(5)
    for trial in range(40):
        inst = _random_instance(rng, max_rows=10, max_vars=3)
        res = seidel_lp(inst, seed=trial)
        if res.status != OPTIMAL:
            continue
        for i in res.tight_set:
            resid = inst.rows[i] @ res.witness - inst.bounds[i]
            assert abs(resid) <= 1e-6 * max(1.0, abs(inst.bounds[i]))
