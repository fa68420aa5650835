"""Planar bodies and searches showing that few constraints never suffice.

The star object is a cap body: the unit circle with one arc cut away and the
hole bridged by a chord.  Against a family of half-planes tangent to the unit
circle, every small subfamily leaves room to rotate, nudge and strictly
inflate the body, while the full family pins it at scale one.  The routines
here build such bodies, find the inflating placements, and assemble the whole
demonstration into a machine-checkable verdict.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import (
    Cap,
    CircleArcs,
    HPolytope,
    Placement,
    Rotation,
    VPolytope,
    cap_measure_2d,
)
from .lp import (OPTIMAL, LpInstance, _violators, build_beta_instance, seidel_lp,
                 support_values)
from .nets import cached_net_2d
from .solver import beta_direct

TWO_PI = 2.0 * math.pi
INFLATION_BUDGET = 1e6   # scale cap when a subfamily cannot bound the copy
CAP_SLACK = 2.0 * math.asin(1e-6)  # contact gap beyond pi that caps a subfamily
DEMO_NET_EPS = 0.05      # net accuracy for the full-family fit in the demo
SUBSET_CAP = 10 ** 4     # exhaustive subset check limit, else sampled
SEARCH_TRIES = 4096      # uniform angles per rotation of an inflation search
SEARCH_ROTATIONS = 8     # rotations an inflation search tries before failing
MEASURE_TOL = 1e-12
MAX_ARC_VERTICES = 4096  # most vertices an arc body read from JSON may have
DEMO_N_LIMIT = 64        # largest subset size n a demonstration checks
DEMO_SAMPLES_LIMIT = 10 ** 4  # most tangent half-planes a demonstration draws


class SearchFailure(RuntimeError):
    """A randomized search ran out of budget; carries what was seen."""

    def __init__(self, message, tries=0, best=None):
        super().__init__(message)
        self.tries = tries
        self.best = best


@dataclass(eq=False)
class CapBody(VPolytope):
    """Convex hull of the unit circle minus one open arc.

    The removed arc is centered at `removed_center_angle` with angular width
    `removed_width`; what remains of the circle is discretized into vertices
    (arc endpoints included), so the body is a polygon inscribed in the unit
    disk whose flat side is the chord across the hole.
    """

    removed_center_angle: float = 0.0
    removed_width: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        self.removed_center_angle = float(self.removed_center_angle)
        self.removed_width = float(self.removed_width)
        if not 0.0 < self.removed_width < TWO_PI:
            raise ValueError("removed arc width must lie strictly in (0, 2*pi)")

    @property
    def boundary_arcs(self):
        """The retained circular arc; this is the body's share of the circle."""
        half = 0.5 * self.removed_width
        start = self.removed_center_angle + half
        return CircleArcs(((start, start + TWO_PI - self.removed_width),))

    @property
    def retained_measure(self):
        return (TWO_PI - self.removed_width) / TWO_PI

    @classmethod
    def from_json(cls, obj):
        data = obj["arc_body"]
        # vertex_count is optional; without it the body gets the default
        # discretization
        count = data.get("vertex_count", 130)
        if type(count) is not int or not 3 <= count <= MAX_ARC_VERTICES:
            raise ValueError(
                f"vertex_count must be an integer from 3 to {MAX_ARC_VERTICES}")
        return cls.of_width(data["removed_center_angle"],
                            data["removed_width"], count - 2)

    @classmethod
    def of_width(cls, center, width, m: int = 128):
        """Direct construction from the removed arc's center and width."""
        return _discretized_cap_body(float(center), float(width), int(m))


def _discretized_cap_body(center, width, m):
    half = 0.5 * width
    angles = np.linspace(center + half, center + TWO_PI - half, m + 2)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return CapBody(pts, center, width)


def cap_body(n: int, margin: float, m: int = 128) -> CapBody:
    """Cap body tuned against families of n half-planes.

    The removed width is pi - 2*pi/n + margin, which makes the retained
    arc's overlap with any half-circle around the hole measure strictly
    less than 1/n; that overlap bound is re-checked exactly before the
    body is returned.
    """
    if n < 2:
        raise ValueError("need n >= 2 half-spaces to play against")
    if m < 1:
        raise ValueError("need at least one interior vertex on the arc")
    width = math.pi - TWO_PI / n + margin
    if not 0.0 < margin < TWO_PI / n:
        raise ValueError("margin must lie in (0, 2*pi/n) so the arc stays long")
    if width >= TWO_PI:
        raise ValueError("removed width reaches the whole circle")
    body = _discretized_cap_body(0.0, width, m)
    hole = Cap(np.array([math.cos(0.0), math.sin(0.0)]), 0.0)
    overlap = cap_measure_2d(body, hole)
    if overlap >= 1.0 / n - MEASURE_TOL:
        raise ValueError(
            f"retained arc meets the half-circle in measure {overlap}, "
            f"not below 1/{n}")
    return body


@dataclass(eq=False)
class TangentFamily:
    """Half-planes tangent to the unit circle at given contact directions."""

    contact_points: np.ndarray

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.contact_points, dtype=float))
        if U.shape[1] != 2 or U.shape[0] == 0:
            raise ValueError("contact points must form a nonempty (n, 2) array")
        norms = np.linalg.norm(U, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("contact points must sit on the unit circle")
        self.contact_points = U

    def __len__(self):
        return self.contact_points.shape[0]

    @property
    def halfspaces(self) -> HPolytope:
        return HPolytope(self.contact_points.copy(),
                         np.ones(len(self)))

    @property
    def angles(self):
        return np.arctan2(self.contact_points[:, 1], self.contact_points[:, 0])

    def take(self, indices):
        return TangentFamily(self.contact_points[np.asarray(indices, dtype=int)])

    @classmethod
    def at_angles(cls, angles):
        a = np.asarray(angles, dtype=float)
        return cls(np.stack([np.cos(a), np.sin(a)], axis=1))


def _avoiding_angle(arcs: CircleArcs, points, max_tries, rng):
    """Uniform random angles until the rotated arcs clear every point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = 0.0
    for t in range(1, max_tries + 1):
        theta = float(rng.uniform(0.0, TWO_PI))
        moved = arcs.rotated(theta)
        dist = min(moved.chord_distance(p) for p in pts)
        best = max(best, dist)
        if dist > 0.0:
            return theta, dist, t
    raise SearchFailure(
        f"no clearing rotation in {max_tries} tries (best distance {best})",
        tries=max_tries, best=best)


def avoid_rotation(K, points, max_tries: int = 64, seed=0):
    """Rotation putting every given unit point off K's circular part.

    Returns (rotation, distance): the minimum Euclidean distance from the
    points to the rotated arc is `distance` > 0.  Success per uniform try
    has probability at least 1 - n * mu, where mu is the measure of K's
    circular part, so that measure must be below 1/n to start with; a
    spent budget raises rather than returning silently.
    """
    arcs = getattr(K, "boundary_arcs", None)
    if arcs is None:
        arcs = CircleArcs(())
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    mu = arcs.measure()
    if n * mu >= 1.0:
        raise ValueError(
            f"circular part has measure {mu}, too big against {n} points")
    rng = np.random.default_rng(seed)
    theta, dist, _ = _avoiding_angle(arcs, pts, max_tries, rng)
    return Rotation.from_angle(theta), dist


def _widest_gap(spans):
    """(width, midpoint angle) of the widest hole between (start, end) angle spans."""
    spans = sorted((a % TWO_PI, (a % TWO_PI) + (b - a)) for a, b in spans)
    if not spans:
        return TWO_PI, 0.0
    best_gap, best_mid = -1.0, 0.0
    for (a1, b1), (a2, _) in zip(spans, spans[1:] + [(spans[0][0] + TWO_PI,
                                                      spans[0][1] + TWO_PI)]):
        gap = a2 - b1
        if gap > best_gap:
            best_gap, best_mid = gap, 0.5 * (b1 + a2)
    return best_gap, best_mid % TWO_PI


def _boxed(inst):
    """The scale LP `inst` boxed in by the rows |a_k| <= 2 * INFLATION_BUDGET.

    A copy that can only slide along a strip needs no box: seidel_lp reads
    that LP as optimal.  The box's one remaining job is the sliver of
    contact gaps in (pi, pi + CAP_SLACK], which leave the scale truly
    unbounded but are not capped; boxed, their LP has an optimum (see
    `inflation_search`).  The box rows come after the rows of `inst` and
    have offset 1, so they never raise seidel_lp's offset normalization,
    and with it the tolerance on the other rows.
    """
    d = inst.dim_vars - 1
    eye = np.eye(d + 1)[:d] / (2.0 * INFLATION_BUDGET)
    box = np.vstack([eye, -eye])
    return LpInstance.maximize_last(np.vstack([inst.rows, box]),
                                    np.concatenate([inst.bounds, np.ones(len(box))]))


@dataclass(eq=False)
class InflationResult:
    """Inflated placement of a body inside a tangent subfamily.

    `capped` marks subfamilies that cannot bound the scale at all, where
    delta2, the scale less 1, is reported at the search budget.
    """

    delta2: float
    placement: Placement
    rotation_tries: int
    capped: bool = False


def inflation_search(K, family: TangentFamily, seed=0) -> InflationResult:
    """Placement of K strictly inflated inside a tangent subfamily.

    Boundedness comes first, from the contact angles alone.  By Gordan's
    alternative the scale is unbounded exactly when the contact normals u_i
    lie in an open half-plane, that is when the widest gap g between
    consecutive contact angles exceeds pi.  Along the gap's bisector w every
    <u_i, w> <= -sin((g - pi)/2), so the copy recedes by s*w per unit of
    scale, s = max_i h_AK(u_i) / (-<u_i, w>) <= max h_AK / sin((g - pi)/2).
    The subfamily is `capped` when g > pi + CAP_SLACK, i.e. sin((g - pi)/2) >
    1e-6, which keeps s within 1e6 * max h_AK; an exact antipodal pair (a
    strip) stays bounded.  A capped subfamily returns at once, with no LP
    and no rotation drawn (`rotation_tries` 0), at scale INFLATION_BUDGET,
    rotation angle 0 and translation INFLATION_BUDGET * s * w, whatever its
    number of contacts.

    A bounded subfamily follows the rotate-then-optimize recipe: shrink a
    slacked half-circle around the body's hole until the arc inside it
    measures below 1/n, and rotate so that restricted arc clears every
    contact point (more contacts than K is tuned for make this raise
    SearchFailure).  An LP boxed by |a_k| <= 2 * INFLATION_BUDGET then finds
    the best translation and scale.  Where two opposite tangents let the
    copy slide along their strip, the LP is optimal without the box; the
    box is there for a contact gap in (pi, pi + CAP_SLACK], whose scale is
    unbounded though the subfamily is not capped, and which it gives an
    optimum.  Up to SEARCH_ROTATIONS rotations are tried.  Every placement
    returned has scale above 1 and leaves no half-plane, by the scale LP's
    own support rows (`lp._violators` on the support column already
    computed); a capped one that fails it raises SearchFailure.
    """
    P = family.halfspaces
    gap, w_angle = _widest_gap((a, a) for a in family.angles)
    if gap > math.pi + CAP_SLACK:
        w = np.array([math.cos(w_angle), math.sin(w_angle)])
        rotation = Rotation.from_angle(0.0)
        support = support_values(K, rotation, P.normals)
        s = float(np.max(support / -(P.normals @ w)))
        placement = Placement(INFLATION_BUDGET * s * w, INFLATION_BUDGET, rotation)
        if _violators(placement, support, P).size:
            raise SearchFailure("the budget placement of a capped subfamily "
                                f"leaves it (contact gap {gap})")
        return InflationResult(placement.scale - 1.0, placement, 0, capped=True)

    n = len(family)
    arcs = getattr(K, "boundary_arcs", None) or CircleArcs(())
    u_angle = _widest_gap(arcs.arcs)[1]
    u = np.array([math.cos(u_angle), math.sin(u_angle)])

    eps1 = 0.1
    while cap_measure_2d(K, Cap(u, eps1)) >= 1.0 / n:
        eps1 *= 0.5
        if eps1 < 1e-12:
            raise SearchFailure(
                "no slacked half-circle around the hole is thin enough; "
                f"the arc near {u_angle} is too long against n={n}")
    near_hole = arcs.restrict_to_cap(Cap(u, eps1))

    rng = np.random.default_rng(seed)
    for _ in range(SEARCH_ROTATIONS):
        theta, _, tries = _avoiding_angle(near_hole, family.contact_points,
                                          SEARCH_TRIES, rng)
        rotation = Rotation.from_angle(theta)
        lp_seed = int(rng.integers(2 ** 31))
        inst = build_beta_instance(K, rotation, P)
        res = seidel_lp(_boxed(inst), seed=lp_seed)
        if res.status == OPTIMAL and res.value > 1.0:
            placement = Placement(res.witness[:K.dim], res.value, rotation)
            if not _violators(placement, inst.rows[:-1, -1], P).size:
                return InflationResult(placement.scale - 1.0, placement, tries)
        last = theta
    raise SearchFailure(f"inflation failed after {SEARCH_ROTATIONS} rotations "
                        f"(the last at angle {last})")


def _subset_iter(sample_count, n, rng):
    total = math.comb(sample_count, n)
    if total <= SUBSET_CAP:
        yield from combinations(range(sample_count), n)
        return
    for _ in range(SUBSET_CAP):
        pick = np.sort(rng.choice(sample_count, size=n, replace=False))
        yield tuple(int(i) for i in pick)


def lower_bound_demo(n: int, sample_count: int, seed=0) -> dict:
    """Every n-subfamily admits strict inflation; the full family does not.

    Builds the cap body tuned to n, spreads `sample_count` tangent
    half-planes around the circle with a seeded phase, then (a) certifies
    an inflated copy inside every checked n-subset and (b) fits the body
    against the whole family with a fine rotation net, expecting scale one.
    The two checks go through different code paths, and the verdict passes
    only when both hold.  n above DEMO_N_LIMIT and `sample_count` above
    DEMO_SAMPLES_LIMIT are refused with ValueError.
    """
    return _demo_run(n, sample_count, seed)[2]


def _demo_run(n, sample_count, seed):
    """`lower_bound_demo` with what a picture of it needs.

    Returns (body, family, verdict, placement): the verdict is
    `lower_bound_demo`'s, and the placement is the first uncapped inflation
    in the order the subsets were checked (None if there was none; a capped
    copy sits at the search budget and would not fit a picture).
    """
    if n < 2:
        raise ValueError("the demonstration needs n >= 2")
    if n > DEMO_N_LIMIT:
        raise ValueError(f"n = {n} is above the limit of {DEMO_N_LIMIT}")
    if sample_count < n:
        raise ValueError("cannot draw n-subsets from fewer than n half-planes")
    if sample_count > DEMO_SAMPLES_LIMIT:
        raise ValueError(f"{sample_count} half-planes are above the limit of "
                         f"{DEMO_SAMPLES_LIMIT}")
    root = int(seed) % (2 ** 63)
    rng = np.random.default_rng(np.random.SeedSequence([root, 0]))
    K = cap_body(n, margin=math.pi / (2 * n))
    phase = float(rng.uniform(0.0, TWO_PI))
    family = TangentFamily.at_angles(phase + TWO_PI * np.arange(sample_count)
                                     / sample_count)

    delta = math.inf
    checked = 0
    failing = None
    placement = None
    for subset in _subset_iter(sample_count, n, rng):
        sub_seed = np.random.SeedSequence([root, 1, *subset])
        try:
            result = inflation_search(K, family.take(subset),
                                      seed=int(sub_seed.generate_state(1)[0]))
        except SearchFailure:
            failing = list(subset)
            break
        checked += 1
        if result.delta2 <= 0.0:
            failing = list(subset)
            break
        delta = min(delta, result.delta2)
        if placement is None and not result.capped:
            placement = result.placement

    net = cached_net_2d(K, DEMO_NET_EPS)
    full_beta = beta_direct(K, net, family.halfspaces, seed=root).beta
    subset_ok = failing is None and checked > 0 and delta > 0.0
    full_ok = full_beta <= 1.0 + 1e-3
    verdict = {
        "n": int(n),
        "delta": None if math.isinf(delta) else float(delta),
        "subsets_checked": int(checked),
        "full_family_beta": float(full_beta),
        "verdict": "pass" if (subset_ok and full_ok) else "fail",
        "failing_subset": failing,
    }
    return K, family, verdict, placement
