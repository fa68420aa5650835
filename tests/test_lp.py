import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    CROSSINGS,
    _rescan_eliminate,
    highs_scale,
    lp_vertex_oracle,
    rescan_seidel_lp,
    square_fit_scale,
    vertex_beta_instance,
)
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
from hellyfit import lp
from hellyfit.lp import (
    BOX_BOUND,
    EVAL_GUARD,
    FEAS_TOL,
    FIRST_BLOCK,
    INFEASIBLE,
    MAX_DIM,
    OPTIMAL,
    SCAN_SMALL,
    SMALL,
    UNBOUNDED,
    LpInstance,
    _eliminate,
    _excess,
    _Infeasible,
    _screen,
    beta_fixed_rotation,
    build_beta_instance,
    canonical_placement,
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


def test_crossed_bounds_fail_unless_one_meets_every_row():
    # x <= 0 and, from a = -1e-10, x >= 10: at 0 that row is violated by
    # 1e-9, within its tolerance, so the bounds meet at 0
    up, tiny, firm = (1.0, 0.0, 0), (-1e-10, -1e-9, 1), (-1.0, -5.0, 2)
    assert lp._one_var([up, tiny], 1.0) == (0.0, [0])
    assert lp._one_var([up, tiny], -1.0) == (0.0, [0])
    # but not where a third row, x >= 5, is violated there by 5
    with pytest.raises(_Infeasible):
        lp._one_var([up, tiny, firm], 1.0)
    # the array pass hands `_one_var` only the extreme rows, x <= 0 and
    # the tiny one, and the rest as arrays
    for rows, status in (([up, tiny], OPTIMAL), ([up, tiny, firm], INFEASIBLE)):
        A = np.array([[r[0]] for r in rows])
        b = np.array([r[1] for r in rows])
        try:
            x, chain = lp._base_1d(A, b, np.arange(len(rows)), np.array([1.0]))
            assert (x.tolist(), chain) == ([0.0], [0])
        except _Infeasible:
            assert status == INFEASIBLE
        else:
            assert status == OPTIMAL
        inst = LpInstance(A, b, np.array([1.0]))
        assert seidel_lp(inst).status == rescan_seidel_lp(inst).status == status


def test_unbounded_direction():
    inst = LpInstance(np.array([[-1.0, 0.0]]), np.array([0.0]), np.array([1.0, 0.0]))
    res = seidel_lp(inst)
    assert res.status == UNBOUNDED


def _normals(angles):
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def test_a_copy_that_can_only_slide_is_not_unbounded():
    # two antiparallel rows pin the scale, and the loose rows, whose normals
    # all make an obtuse angle with the strip's direction w, leave the copy
    # free to slide along w; eliminating one wall leaves the slide an
    # objective coefficient of rounding size, which counts as zero as a row
    # coefficient does, so the LP is optimal with its witness far inside
    # the implicit box
    K = regular_polygon(5, 1.0, phase=0.4)
    rng = np.random.default_rng(2310)
    for trial in range(60):
        t = rng.uniform(0.0, 2.0 * math.pi)
        A = Rotation.from_angle(rng.uniform(0.0, 2.0 * math.pi))
        loose = t + rng.uniform(math.pi + 0.1, 2.0 * math.pi - 0.1, 3)
        u = _normals(np.array([t]))
        P = HPolytope(np.vstack([u, -u, _normals(loose)]),
                      np.concatenate([rng.uniform(0.5, 2.0, 2), rng.uniform(1.0, 3.0, 3)]))
        res = seidel_lp(build_beta_instance(K, A, P), seed=trial)
        ref = highs_scale(K, A, P)
        assert res.status == OPTIMAL, trial
        assert abs(res.value - ref) <= 1e-9 * ref
        assert np.abs(res.witness).max() <= 1e-3 * BOX_BOUND
        # control: normals in an open half-plane, leaving a gap of
        # pi + margin, let the copy grow forever
        for margin in (1e-6, 1e-3, 0.5):
            ang = t + np.concatenate([[0.0, math.pi - margin],
                                      rng.uniform(0.0, math.pi - margin, 3)])
            P = HPolytope(_normals(ang), rng.uniform(0.5, 2.0, 5))
            res = seidel_lp(build_beta_instance(K, A, P), seed=trial)
            assert res.status == UNBOUNDED, (trial, margin)


def test_objective_zero_rule_is_relative_to_the_objective():
    # max x subject to -1 <= x <= 1, with objective 1e-12: the rule reads the
    # objective divided by its largest |c_j|, so it is 1, not zero, and the
    # value comes from the objective as given
    res = seidel_lp(LpInstance([[1.0], [-1.0]], [1.0, 1.0], [1e-12]))
    assert res.status == OPTIMAL
    assert res.witness[0] == 1.0
    assert res.value == 1e-12


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
    placement = canonical_placement(K, res.placement, P)[0]
    assert np.allclose(placement.translation, [0.5, 0.5], atol=1e-8)


def test_axis_square_in_double_box():
    K = unit_square()
    P = _square_h(0.0, 2.0)
    res = beta_fixed_rotation(K, Rotation.identity(2), P)
    assert res.ok and abs(res.value - 2.0) <= 1e-9


def test_square_fit_matches_closed_form_across_angles():
    K = VPolytope(np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]))
    P = _square_h()
    for theta in np.linspace(0.0, 2.0 * math.pi, 37):
        res = beta_fixed_rotation(K, Rotation.from_angle(float(theta)), P)
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
    supp = beta_fixed_rotation(K, A, P, seed=lp_seed)
    assert supp.status == vert.status
    if vert.status != OPTIMAL:
        return
    value = supp.value
    assert abs(value - vert.value) <= 1e-9 * max(1.0, abs(value))
    vert_tight = sorted({int(r) // len(K) for r in vert.tight_set})
    for tight in (vert_tight, list(supp.tight_rows)):
        sub = beta_fixed_rotation(K, A, P.take(tight))
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
    base_at = canonical_placement(K, base.placement, P)[0].translation
    for seed in (1, 2, 3, 17, 91):
        res = beta_fixed_rotation(K, Rotation.from_angle(0.2), P, seed=seed)
        assert abs(res.value - base.value) <= 1e-9
        at = canonical_placement(K, res.placement, P)[0].translation
        assert np.allclose(at, base_at, atol=1e-7)


def test_canonical_translation_is_lex_min_on_degenerate_strip():
    # sliding freedom: a unit square inside a wide box has many optimal
    # placements; the canonical witness must sit at the lexicographic minimum
    K = unit_square()
    P = box_polytope(np.array([0.0, 0.0]), np.array([5.0, 1.0]))
    res = beta_fixed_rotation(K, Rotation.identity(2), P, seed=3)
    assert abs(res.value - 1.0) <= 1e-9
    placement = canonical_placement(K, res.placement, P)[0]
    assert np.allclose(placement.translation, [0.0, 0.0], atol=1e-7)


# ---------------------------------------------------------------------------
# invariance under rigid motions and scaling


def test_beta_translation_equivariance():
    K = regular_polygon(6, 1.0)
    P = regular_polygon(8, 3.0, phase=0.2).hull_halfspaces()
    t = np.array([4.0, -7.0])
    res0 = beta_fixed_rotation(K, Rotation.from_angle(0.5), P)
    res1 = beta_fixed_rotation(K, Rotation.from_angle(0.5), P.translated(t))
    assert abs(res0.value - res1.value) <= 1e-9
    at0 = canonical_placement(K, res0.placement, P)[0].translation
    at1 = canonical_placement(K, res1.placement, P.translated(t))[0].translation
    assert np.allclose(at0 + t, at1, atol=1e-7)


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


# ---------------------------------------------------------------------------
# the block look-ahead scan against the plain re-scan


SCAN_KINDS = ("feasible", "random", "support", "repeated", "zero", "infeasible",
              "unbounded", "near_parallel")
# block edges of a clean scan sit at 16, 48 and 112 rows
SCAN_SIZES = (0, 1, 2) + tuple(
    edge + step for edge in (FIRST_BLOCK, 3 * FIRST_BLOCK, 7 * FIRST_BLOCK)
    for step in (-1, 0, 1)) + (3000,)


def _scan_instance(rng, d, n, kind):
    """An LP of `n` rows in `d` variables from the row family `kind`."""
    A = rng.normal(size=(n, d))
    b = rng.normal(size=n)
    c = rng.normal(size=d)
    if kind == "feasible":
        b = np.abs(b) + 0.1
    elif kind == "support":
        # the scale LP of a random body against tangent half-spaces: unit
        # normals, then the body's support value in each normal
        if d > 1:
            U = A[:, :-1] / np.linalg.norm(A[:, :-1], axis=1, keepdims=True)
            W = rng.normal(size=(int(rng.integers(3, 9)), d - 1))
            A = np.hstack([U, np.max(U @ W.T, axis=1, keepdims=True)])
        else:
            A = np.abs(A) + 0.1
        b = np.ones(n)
        c = np.zeros(d)
        c[-1] = 1.0
    elif kind == "repeated":
        pick = rng.integers(0, max(1, n // 4), size=n)
        A, b = A[pick], b[pick]
    elif kind == "zero":
        flat = rng.random(n) < 0.2
        A[flat] = 0.0
        b = np.abs(b) + 0.1
        if rng.random() < 0.3:
            b[flat] = -b[flat]
    elif kind == "infeasible":
        b = np.abs(b) + 0.1
        if n >= 2:
            # x_0 <= -1 and -x_0 <= -1 at two random positions
            i, j = rng.choice(n, size=2, replace=False)
            A[i], A[j] = 0.0, 0.0
            A[i, 0], A[j, 0] = 1.0, -1.0
            b[i], b[j] = -1.0, -1.0
    elif kind == "unbounded":
        # every row recedes along c, so the optimum runs off to the box
        A[A @ c > 0] *= -1.0
        b = np.abs(b) + 0.1
    elif kind == "near_parallel":
        if d == 1:
            A, b = _crossing_rows(rng, n)
            A = A[:, None]
        else:
            # a fan of rows nearly tight at one point, normals within about
            # 1e-4 of c, offsets jittered by about the row tolerance
            c /= np.linalg.norm(c)
            A = c + 1e-4 * A
            b = A @ rng.normal(size=d) + 1e-9 * b
    return LpInstance(A, b, c)


def _crossing_rows(rng, n):
    """One-variable rows a x <= bb whose bounds cross by more than the tolerance.

    Loose rows bound x about 0.  A third of the rows have |a| in [1e-10,
    1e-9], all of one sign, and each bounds x beyond the loose bound on the
    other side, where it is violated by v, uniform in [0, 0.9e-9] or in
    [0, 3e-9]: within the row tolerance 1e-9, or for some rows beyond it.
    """
    a = rng.normal(size=n)
    bb = np.abs(rng.normal(size=n)) + 0.1
    tiny = rng.random(n) < 1 / 3
    up, down = ~tiny & (a > 0), ~tiny & (a < 0)
    hi = np.min(bb[up] / a[up], initial=BOX_BOUND)
    lo = np.max(bb[down] / a[down], initial=-BOX_BOUND)
    k = int(tiny.sum())
    a[tiny] = rng.choice([-1.0, 1.0]) * rng.uniform(1e-10, 1e-9, size=k)
    v = rng.uniform(0.0, rng.choice([0.9e-9, 3e-9]), size=k)
    bb[tiny] = np.where(a[tiny] > 0, a[tiny] * lo - v, a[tiny] * hi - v)
    return a, bb


def _assert_bit_identical(res, ref):
    assert res.status == ref.status
    assert np.float64(res.value).tobytes() == np.float64(ref.value).tobytes()
    assert (res.witness is None) == (ref.witness is None)
    if ref.witness is not None:
        assert res.witness.tobytes() == ref.witness.tobytes()
    assert res.tight_set == ref.tight_set


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=4),
       st.sampled_from(SCAN_SIZES) | st.integers(min_value=0, max_value=3000),
       st.sampled_from(SCAN_KINDS))
def test_block_scan_matches_rescan(seed, d, n, kind):
    # finding each violator by block look-ahead must not change a bit of
    # the answer: same random order, same per-row arithmetic
    inst = _scan_instance(np.random.default_rng(seed), d, n, kind)
    _assert_bit_identical(seidel_lp(inst, seed=seed), rescan_seidel_lp(inst, seed=seed))


def test_block_scan_matches_rescan_at_block_edges():
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for d in range(1, 5):
        for kind in SCAN_KINDS:
            for n in SCAN_SIZES:
                seed = 1000 * d + 10 * n + SCAN_KINDS.index(kind)
                inst = _scan_instance(np.random.default_rng(seed), d, n, kind)
                ref = rescan_seidel_lp(inst, seed=seed)
                _assert_bit_identical(seidel_lp(inst, seed=seed), ref)
                statuses[ref.status] += 1
    assert min(statuses.values()) >= 20, statuses


# every prefix length on both sides of the plain-Python cut-off, then two
# that only the array pass sees
FUSED_SIZES = tuple(range(2 * SMALL + 2)) + (500, 3000)
FUSED_KINDS = SCAN_KINDS + ("box_tie", "flat", "crossing")


def _fused_case(rng, m, kind):
    """A two-variable elimination: rows, offsets, ids, objective, pinned row, prefix.

    "box_tie" prefixes repeat the two rows that reduce to exactly the box
    rows of the eliminated variable, so every bound ties a box row.  "flat"
    prefixes mix loose random rows with multiples of the pinned row, which
    reduce to |a| <= PIVOT_TOL with offsets inside or outside the tolerance.
    "crossing" prefixes reduce to `_crossing_rows`.
    """
    if kind in SCAN_KINDS:
        inst = _scan_instance(rng, 2, m + 1, kind)
        A, b, c = inst.rows, inst.bounds, inst.objective
    else:
        A, c = rng.normal(size=(m + 1, 2)), rng.normal(size=2)
        b = np.abs(rng.normal(size=m + 1)) + 0.1
    ridx = m if rng.random() < 0.5 else int(rng.integers(m + 1))
    roll = rng.random()
    if roll < 0.2:
        A[ridx] = rng.normal() * np.array([1.0, rng.choice([-1.0, 1.0])])  # |a0| == |a1|
    elif roll < 0.4:
        # a pinned axis row through the origin: ck and rhs are signed zeros
        A[ridx] = 0.0
        A[ridx, int(rng.integers(2))] = rng.choice([-1.0, 1.0])
        b[ridx] = rng.choice([-0.0, 0.0])
    elif np.abs(A[ridx]).max() < 1e-3:
        A[ridx] = rng.normal(size=2)
    if kind == "flat":
        b[ridx] = 0.0  # x_k = 0 meets every loose row, so only a flat row can fail
    row, rb = A[ridx].copy(), b[ridx]
    j = int(np.abs(row).argmax())
    ck, rhs = row[1 - j] / row[j], rb / row[j]
    others = np.delete(np.arange(m + 1), ridx)
    if kind == "box_tie":
        tie = np.zeros((2, 2))
        tie[0, 1 - j], tie[1, 1 - j] = ck, -ck
        pick = rng.integers(0, 2, m)
        A[others] = tie[pick]
        b[others] = np.array([BOX_BOUND + rhs, BOX_BOUND - rhs])[pick]
    elif kind == "flat":
        mult = others[rng.random(m) < 0.5]
        s = rng.normal(size=mult.size)
        A[mult] = s[:, None] * row
        gap = rng.choice([0.5, 1e-12, -1e-12, -1e-3], size=mult.size, p=[0.7, 0.1, 0.1, 0.1])
        b[mult] = s * rb + gap
    elif kind == "crossing":
        a, bb = _crossing_rows(rng, m)
        t = rng.normal(size=m)
        A[others, j], A[others, 1 - j] = t, a + t * ck
        b[others] = bb + t * rhs
    roll = rng.random()
    if roll < 0.15:
        c = np.zeros(2)  # cred == 0
    elif roll < 0.3:
        c[int(rng.integers(2))] = 0.0
    ids = np.arange(m + 1)
    ids[rng.random(m + 1) < 0.2] = -1  # box rows of an enclosing level
    prefix = slice(0, m) if ridx == m and rng.random() < 0.7 else others
    return A, b, ids, c, ridx, prefix


def _elimination(fn, A, b, ids, c, ridx, prefix):
    try:
        x, chain = fn(A, b, ids, c, None, ridx, prefix)
    except _Infeasible:
        return None
    return x.tobytes(), chain


def test_fused_1d_step_matches_rescan_elimination():
    # the fused two-variable step must give the reduced-array elimination's
    # witness, chain or infeasibility bit for bit, on either side of SMALL;
    # neither draws from the rng at two variables, so it is None here; bounds
    # that cross beyond the tolerance, met or infeasible, are counted apart
    seen = {}
    for m in FUSED_SIZES:
        for kind in FUSED_KINDS:
            for rep in range(3):
                seed = 100 * m + 10 * FUSED_KINDS.index(kind) + rep
                case = _fused_case(np.random.default_rng(seed), m, kind)
                before = CROSSINGS.copy()
                ref = _elimination(_rescan_eliminate, *case)
                assert _elimination(_eliminate, *case) == ref, (m, kind, rep)
                outcome = "infeasible" if ref is None else len(ref[1])
                for key in [outcome] + ["crossed " + k for k in CROSSINGS - before]:
                    seen[(m < SMALL, key)] = seen.get((m < SMALL, key), 0) + 1
    for small in (True, False):
        for outcome in ("infeasible", 1, 2, "crossed met", "crossed infeasible"):
            assert seen.get((small, outcome), 0) >= 10, seen


# ---------------------------------------------------------------------------
# the list levels below SCAN_SMALL and their sign screen


# every level size on both sides of the list cut-off; at eight variables,
# where BLAS may round a row by its offset in the block, the smallest sizes
# and those at the first block edge, since larger eight-variable programs
# take seconds each
CUT_SIZES = {d: tuple(range(2 * SCAN_SMALL + 2)) for d in (1, 2, 3, 4)}
CUT_SIZES[MAX_DIM] = (0, 1, 2, 3, FIRST_BLOCK - 1, FIRST_BLOCK, FIRST_BLOCK + 1)


def test_list_levels_match_rescan_across_the_cut_off():
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for d, sizes in CUT_SIZES.items():
        for kind in SCAN_KINDS:
            for n in sizes:
                seed = 100000 * d + 100 * n + SCAN_KINDS.index(kind)
                inst = _scan_instance(np.random.default_rng(seed), d, n, kind)
                ref = rescan_seidel_lp(inst, seed=seed)
                _assert_bit_identical(seidel_lp(inst, seed=seed), ref)
                statuses[ref.status] += 1
    assert min(statuses.values()) >= 50, statuses


def _near_zero_offsets(A, x, rng):
    """Offsets that put each row's `_excess` at x within a few ulps of 0."""
    b = A @ x - EVAL_GUARD * (np.abs(A) @ np.abs(x))
    b -= FEAS_TOL * np.maximum(1.0, np.abs(b))
    for _ in range(2):
        b += _excess(A, b, FEAS_TOL * np.maximum(1.0, np.abs(b)), x)
    return b + rng.integers(-4, 5, size=b.shape) * np.spacing(b)


def test_screen_falls_back_to_blas_within_rounding(monkeypatch):
    # the scan starts at the box corner x0 = BOX_BOUND * sign(c); rows whose
    # excess at x0 is within a few ulps of 0 cannot be signed in Python
    # floats, so their block must be scored by `_excess`, and the answer
    # must still be the re-scan's bit for bit
    blocks = []

    def counting_excess(A, b, b_tols, x):
        blocks.append(A.shape[0])
        return _excess(A, b, b_tols, x)

    monkeypatch.setattr(lp, "_excess", counting_excess)
    fell_back = 0
    for trial in range(60):
        rng = np.random.default_rng(trial)
        d = int(rng.integers(2, 5))
        n = int(rng.integers(FIRST_BLOCK, SCAN_SMALL))
        c = rng.choice([-1.0, 1.0], size=d) * rng.uniform(0.5, 2.0, size=d)
        x0 = np.where(c > 0, BOX_BOUND, -BOX_BOUND)
        # |A @ x0| <= 0.5 and |b| <= 1, so seidel_lp does not rescale b
        A = rng.uniform(-1.0, 1.0, size=(n, d)) * (0.5 / (d * BOX_BOUND))
        b = _near_zero_offsets(A, x0, rng)
        loose = rng.random(n) < 0.3
        b[loose] += rng.uniform(-0.5, 0.5, size=loose.sum())
        inst = LpInstance(A, b, c)
        blocks.clear()
        res = seidel_lp(inst, seed=trial)
        fell_back += blocks.count(FIRST_BLOCK) > 0
        _assert_bit_identical(res, rescan_seidel_lp(inst, seed=trial))
    assert fell_back >= 30, fell_back


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from((1, 2, 3, 4, MAX_DIM)),
       st.integers(min_value=1, max_value=40))
def test_screen_commits_only_to_the_blas_sign(seed, d, n):
    # wherever `_screen` calls a row certainly clean or certainly violated,
    # `_excess` agrees, whether BLAS scores the row in a block or alone
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 4, size=(n, 1))
    A[rng.random((n, d)) < 0.1] = 0.0
    x = rng.normal(size=d) * 10.0 ** rng.integers(-3, 8, size=d)
    x[rng.random(d) < 0.2] = rng.choice([-BOX_BOUND, 0.0, BOX_BOUND])
    b = _near_zero_offsets(A, x, rng)
    far = rng.random(n) < 0.3
    b[far] = rng.normal(size=far.sum()) * 10.0 ** rng.integers(-3, 3, size=far.sum())
    tols = FEAS_TOL * np.maximum(1.0, np.abs(b))
    block = _excess(A, b, tols, x) > 0
    rows = A.tolist(), b.tolist(), tols.tolist(), x.tolist()
    for i in range(n):
        alone = _excess(A[i:i + 1], b[i:i + 1], tols[i:i + 1], x)[0] > 0
        at, violated = _screen(*rows, i, i + 1)
        if at == i + 1:
            assert not block[i] and not alone, i
        elif violated:
            assert block[i] and alone, i
