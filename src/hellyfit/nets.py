"""Finite rotation nets.

A net for a body K at accuracy eps is a finite list of rotations A_1..A_t
such that every rotated copy of K contains a translate of (1-eps)A_iK for
some i.  Equivalently, for every rotation D there is a net element within
the body's rotational slack: a shrunk copy at the relative rotation still
fits inside K.

Two builders are provided.  The planar one measures the slack angle of K
directly (`max_angle_2d`) and spaces rotations accordingly; it produces the
smallest nets this module knows how to certify.  The general builder uses
only the inradius/circumradius ratio and covers the rotation group at
operator-norm resolution eps*r/R, which is sufficient for any convex body
but typically far from tight.  Both refuse nets of more than NET_LIMIT
rotations.  Neither builder exploits symmetries of K: a square gets four
rotations even though one would do.  The solver does, by solving the
rotations whose copies of K are translates of one another only once.

The planar scan bisects each proper failure it meets under one of two stop
rules.  `max_angle_2d` stops when the bracket is BISECT_TOL wide;
`build_net_2d` also stops as soon as both ends of the bracket give the same
net size t = ceil(pi / alpha), since t is all the net uses.  The shorter
bisection is a prefix of the longer, so the full-precision alpha lies in
its last bracket and gives the same t: the net is unchanged, at a fraction
of the margin LPs.

Both rest on one bound.  Let B(z, r) be K's inball, B(c, R) its miniball
and q = r/R.  If a + beta*R_theta K lies in K, rotate that copy by delta
about the image of c: each point moves by at most beta*|delta|*R.  Shrinking
the result towards z by r / (r + beta*|delta|*R) puts it back inside K, so

    beta(theta + delta) >= beta(theta) * r / (r + beta(theta)*|delta|*R).

The general builder's spacing rests on the same argument at the identity.
The slack scan applies the bound around every angle it solves: margins
within the radius of `_clean_radius` are proven positive and not solved.  Applied to the
inball alone, the bound gives beta(theta) >= q at every theta, so a body
with q above 1 - eps has full slack and needs no scan at all.
"""

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    DegenerateGeometryError,
    Rotation,
    UnsupportedDimensionError,
    VPolytope,
    miniball,
    random_rotation,
    shape_digest,
)
from .lp import (
    beta_fixed_rotation,
    chebyshev_inradius,
    fit_check,
)

TOUCH_TOL = 1e-9       # a fit margin this small counts as a boundary contact
FAIL_TOL = 1e-7        # margins below -FAIL_TOL are proper failures
ANGLE_TOL = 1e-3       # default scan resolution for max_angle_2d
CEIL_SLACK = 1e-6      # protects t = ceil(pi/alpha) from fp noise in alpha
BOUND_SLACK = 1e-7     # LP error allowed for by the clean radius of the scan
REFINE_ROUNDS = 3      # parabola rounds, each moving at most one grid cell
REFINE_STEP = 1e-4     # half-width of the parabola refine's 3-point stencil
BISECT_TOL = 1e-9      # angle to which a proper failure's boundary is bisected
NET_LIMIT = 20_000     # most rotations any net builder will build

log = logging.getLogger(__name__)

EXACT_2D = "exact_2d"
SUFFICIENT_BOUND = "sufficient_bound"

_CERTIFICATES = (EXACT_2D, SUFFICIENT_BOUND)


class NetTooLargeError(ValueError):
    """A net would hold more than NET_LIMIT rotations."""


def _refuse_above_limit(count, kind, epsilon):
    """Raise NetTooLargeError, logged, when a net would exceed NET_LIMIT."""
    if count > NET_LIMIT:
        msg = (f"a {kind} net at epsilon {epsilon:g} needs {count} rotations,"
               f" above the limit of {NET_LIMIT}; increase epsilon")
        log.warning("refused: %s", msg)
        raise NetTooLargeError(msg)


def _ring(t):
    """The t planar rotations at angles 2*pi*j/t, j = 1..t.

    Angles are taken modulo the full turn, so the last rotation is exactly
    the identity rather than a rotation by a rounded 2*pi.
    """
    return tuple(Rotation.from_angle(2.0 * math.pi * (j % t) / t) for j in range(1, t + 1))


def _margin(K, rotation, PK, target):
    """K's scale inside its hull PK at a rotation, less target; -1 unless optimal."""
    res = beta_fixed_rotation(K, rotation, PK)
    return res.value - target if res.ok else -1.0


@dataclass(eq=False)
class RotationNet:
    """Immutable list of rotations with the accuracy they were built for;
    which body they are for is `cached_net_2d`'s key, not the net's."""

    rotations: tuple
    epsilon: float
    certificate: str

    def __post_init__(self):
        if len(self.rotations) < 1:
            raise ValueError("a net needs at least one rotation")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.certificate not in _CERTIFICATES:
            raise ValueError(f"unknown certificate {self.certificate!r}")
        self.rotations = tuple(self.rotations)

    def __len__(self):
        return len(self.rotations)

    def __iter__(self):
        return iter(self.rotations)

    @property
    def dim(self):
        return self.rotations[0].dim

    @cached_property
    def matrices(self):
        """The rotation matrices stacked into one (t, d, d) array."""
        return np.stack([r.matrix for r in self.rotations])

    def angles(self):
        if self.dim != 2:
            raise UnsupportedDimensionError("angles are only defined for 2-d nets")
        return np.array([r.angle for r in self.rotations])

    def to_json(self):
        return {
            "epsilon": self.epsilon,
            "certificate": self.certificate,
            "rotations": [r.matrix.reshape(-1).tolist() for r in self.rotations],
        }


# ---------------------------------------------------------------------------
# planar slack angle


def _margin_fn(K: VPolytope, epsilon: float, PK):
    """Fit margin as a function of the rotation angle.

    The margin is the fixed-rotation scale of K inside its own hull `PK`,
    `K.hull_halfspaces()`, less 1 - eps, from `beta_fixed_rotation`: one LP
    of |PK| + 1 support-function rows per angle.  A status other than
    optimal gives margin -1.
    """
    target = 1.0 - epsilon

    def margin(theta):
        return _margin(K, Rotation.from_angle(theta), PK, target)

    return margin


def _clean_radius(beta, target, q):
    """Rotation angle within which the fit margin provably stays above TOUCH_TOL.

    From beta(theta + delta) >= beta*r / (r + beta*|delta|*R) (module
    docstring), the scale stays at or above tau = target + TOUCH_TOL +
    BOUND_SLACK for |delta| <= q*(beta - tau) / (tau*beta), where beta is
    the scale at theta and q = r/R.  BOUND_SLACK absorbs the LP error of
    both the solved and the skipped margins.  Zero when beta <= tau.
    """
    tau = target + TOUCH_TOL + BOUND_SLACK
    if beta <= tau:
        return 0.0
    return q * (beta - tau) / (tau * beta)


def _parabola_refine(margin, center, max_step):
    """Locate a smooth local minimum by repeated 3-point parabola fits.

    The true minimum may sit up to a grid cell away from `center`, so the
    per-round step is clipped at `max_step`, the grid cell.
    """
    h = REFINE_STEP
    v = center
    for _ in range(REFINE_ROUNDS):
        m_l, m_c, m_r = margin(v - h), margin(v), margin(v + h)
        denom = m_l - 2.0 * m_c + m_r
        if denom <= 0.0:
            break
        step = 0.5 * h * (m_l - m_r) / denom
        v += float(np.clip(step, -max_step, max_step))
    return v, margin(v)


def _net_size(alpha):
    """Rotations t = ceil(pi / alpha) of the planar net for slack angle alpha.

    The one place t is computed.  The ceiling is taken with CEIL_SLACK
    because alpha is resolved numerically.  t does not increase with alpha;
    at alpha = 0 it is infinite, so a bracket starting at 0 never counts as
    deciding t.
    """
    if alpha <= 0.0:
        return math.inf
    return max(1, int(math.ceil(math.pi / alpha - CEIL_SLACK)))


def _angle_settled(lo, hi):
    """Stop rule of `max_angle_2d`: the bracket is BISECT_TOL wide."""
    return hi - lo <= BISECT_TOL


def _size_settled(lo, hi):
    """Stop rule of `build_net_2d`: as above, or every angle in it gives one t."""
    return hi - lo <= BISECT_TOL or _net_size(lo) == _net_size(hi)


def _cross_boundary(margin, lo, hi, settled):
    """Bisect for the edge of {margin > TOUCH_TOL} until settled(lo, hi).

    lo is clean, hi is not; returns the final hi.
    """
    while not settled(lo, hi):
        mid = 0.5 * (lo + hi)
        if margin(mid) > TOUCH_TOL:
            lo = mid
        else:
            hi = mid
    return hi


def _first_stop(margin, sign, tol, m_zero, target, q, settled):
    """Smallest positive angle along one direction where the shrunk copy
    stops fitting strictly (failure or boundary contact); pi if none.

    Walks the grid k*tol (the last point is pi).  A grid point stops the
    walk if its margin is at most TOUCH_TOL, or if it ends a window of three
    consecutive points whose middle is a local minimum that a parabola
    refine (at most REFINE_ROUNDS cells away) takes down to TOUCH_TOL.
    After each solved point the walk jumps to the last grid point k such
    that every grid point up to k, and every angle a refine started at one
    of them can reach, lies within that point's clean radius.  No skipped
    point could have stopped the walk, so the result is that of solving
    every grid point; a jump restarts the window.  `m_zero` is the margin
    at 0; a proper failure is bisected until `settled` holds.
    """
    def along(x):
        return margin(sign * x)

    n_steps = int(math.ceil(math.pi / tol))
    k, m, prev_t = 0, m_zero, 0.0
    window = [(0.0, m_zero)]  # trailing (theta, margin) of consecutive grid points
    while k < n_steps:
        cells = int(_clean_radius(m + target, target, q) / tol) - REFINE_ROUNDS
        if cells >= 2:
            k += cells
            if k >= n_steps:
                return math.pi
            window = []
        else:
            k += 1
        t = k * tol if k < n_steps else math.pi
        m = along(t)
        if m <= TOUCH_TOL:
            if m < -FAIL_TOL:
                return _cross_boundary(along, prev_t, t, settled)
            v, mv = _parabola_refine(along, t, max_step=tol)
            return max(0.0, v)
        window.append((t, m))
        if len(window) == 3:
            (t0, m0), (t1, m1), (t2, m2) = window
            if m1 <= m0 and m1 <= m2:
                v, mv = _parabola_refine(along, t1, max_step=tol)
                if mv <= TOUCH_TOL:
                    if mv < -FAIL_TOL:
                        return _cross_boundary(along, t0, v, settled)
                    return max(0.0, v)
            window.pop(0)
        prev_t = t
    return math.pi


def _circumradius(K: VPolytope) -> float:
    """K's miniball radius, which the nets divide by.

    `miniball` works to an absolute tolerance, so a body of side about 1e-8
    gets radius 0; such a body is refused rather than divided by.
    """
    R = miniball(K.vertices).radius
    if not R > 0.0:
        raise DegenerateGeometryError(
            "body is too small: its circumradius rounds to 0; scale it up")
    return R


def _slack_angle(K: VPolytope, epsilon: float, tol: float, settled):
    """The slack-angle scan behind `max_angle_2d` and `build_net_2d`.

    Returns alpha and K's hull PK.  Proper failures are bisected until
    `settled(lo, hi)` holds for the bracket; everything else is as
    `max_angle_2d` documents.
    """
    if K.dim != 2:
        raise UnsupportedDimensionError("max_angle_2d is planar only")
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    if not K.is_full_dimensional():
        raise DegenerateGeometryError("body must be full-dimensional")
    if tol <= 0:
        raise ValueError("tol must be positive")
    PK = K.hull_halfspaces()
    target = 1.0 - epsilon
    q = max(0.0, chebyshev_inradius(PK).radius) / _circumradius(K)
    if q > target + TOUCH_TOL + BOUND_SLACK:
        return math.pi, PK
    margin = _margin_fn(K, epsilon, PK)
    m0 = margin(0.0)
    if m0 <= TOUCH_TOL:
        return 0.0, PK
    a_pos = _first_stop(margin, +1.0, tol, m0, target, q, settled)
    a_neg = _first_stop(margin, -1.0, tol, m0, target, q, settled)
    return min(a_pos, a_neg, math.pi), PK


def max_angle_2d(K: VPolytope, epsilon: float, tol: float = ANGLE_TOL) -> float:
    """Largest alpha such that (1-eps)R_theta K fits in K for all |theta| <= alpha.

    Scans a theta grid at resolution `tol` in both directions (fit slack is
    not symmetric for bodies without mirror symmetry), refines grid local
    minima by parabola fitting to catch contacts between grid points, and
    bisects proper failures to BISECT_TOL.  Capped at pi, which means every
    rotation fits.

    Each solved margin LP proves, by the inradius/circumradius bound of
    the module docstring, that the margin stays positive over a radius
    around its angle; the scan skips the grid points in it.  Far from a
    contact that radius spans many grid cells; near one it shrinks below a
    cell, and the scan solves every grid point there as a plain scan would,
    so alpha is that of the plain scan.  If the inradius/circumradius ratio
    q = r/R exceeds 1 - eps (plus TOUCH_TOL and BOUND_SLACK), every rotation
    fits and pi is returned without any margin LP.
    """
    return _slack_angle(K, epsilon, tol, _angle_settled)[0]


def build_net_2d(K: VPolytope, epsilon: float, tol: float = ANGLE_TOL) -> RotationNet:
    """Uniform planar net with spacing set by the measured slack angle.

    t = ceil(pi / alpha) rotations at angles 2*pi*j/t, j = 1..t.  The ceiling
    is taken with a small slack because alpha itself is resolved numerically;
    a direct fit probe at the worst-case relative angle then confirms the
    spacing (and densifies as a last resort, which no known input triggers).
    Above NET_LIMIT rotations it raises NetTooLargeError before building any.

    The scan is that of `max_angle_2d`, except that a bisection also stops
    once both ends of its bracket give the same t.  The stopped bisection is
    a prefix of the full one, so the full-precision alpha lies in its last
    bracket; t does not increase with alpha, so that alpha gives the same t,
    and t(min(a+, a-)) = max(t(a+), t(a-)) carries this over to the two
    directions.  The net is the one `max_angle_2d`'s alpha would give.
    """
    if K.dim != 2:
        raise UnsupportedDimensionError("build_net_2d is planar only")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    alpha, PK = _slack_angle(K, epsilon, tol, _size_settled)
    if alpha <= 0.0:
        raise DegenerateGeometryError(
            "body has no rotational slack at this epsilon; increase epsilon")
    t = _net_size(alpha)
    target = 1.0 - epsilon
    for _ in range(3):
        if fit_check(K, Rotation.from_angle(math.pi / t), target, PK) and \
           fit_check(K, Rotation.from_angle(-math.pi / t), target, PK):
            break
        t += 1
    _refuse_above_limit(t, "planar", epsilon)
    return RotationNet(_ring(t), epsilon, EXACT_2D)


_NETS_2D = {}


def cached_net_2d(K: VPolytope, epsilon: float) -> RotationNet:
    """`build_net_2d(K, epsilon)`, built once per body shape and accuracy."""
    key = (shape_digest(K), float(epsilon))
    net = _NETS_2D.get(key)
    if net is None:
        net = _NETS_2D[key] = build_net_2d(K, epsilon)
    return net


# ---------------------------------------------------------------------------
# radius-ratio builder, any supported dimension


def _euler_zyz(p1, p2, p3):
    c1, s1 = math.cos(p1), math.sin(p1)
    c2, s2 = math.cos(p2), math.sin(p2)
    c3, s3 = math.cos(p3), math.sin(p3)
    rz1 = np.array([[c1, -s1, 0.0], [s1, c1, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[c2, 0.0, s2], [0.0, 1.0, 0.0], [-s2, 0.0, c2]])
    rz3 = np.array([[c3, -s3, 0.0], [s3, c3, 0.0], [0.0, 0.0, 1.0]])
    return rz1 @ ry @ rz3


def build_net_sufficient(K: VPolytope, epsilon: float) -> RotationNet:
    """Net from the inradius/circumradius ratio alone.

    If B(c, r) lies in K and K lies in B(c, R), then K contains
    (1-eps)K + eps*B(c, r) by convexity, so perturbing the rotation by at
    most eps*r/R in operator norm keeps a translate of the shrunk copy
    inside.  The grid is spaced so every rotation has a net element within
    that operator-norm radius; a sampled spot check confirms both the
    covering distance and the actual fit before the net is returned.  The
    rotation count is known before anything is built: above NET_LIMIT the
    builder raises NetTooLargeError instead.
    """
    d = K.dim
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if d not in (2, 3):
        raise UnsupportedDimensionError(
            "radius-ratio nets are implemented for d = 2 and d = 3 only")
    PK = K.hull_halfspaces()
    inr = chebyshev_inradius(PK)
    if inr.status != "optimal" or inr.radius <= 0.0:
        raise DegenerateGeometryError("body has empty interior")
    r = inr.radius
    R = _circumradius(K)
    rho = min(1.0, epsilon * r / R)

    if d == 2:
        count = t = int(math.ceil(math.pi / math.asin(rho / 2.0)))
    else:
        s = 4.0 * math.asin(min(1.0, rho / 6.0))
        n1 = int(math.ceil(2.0 * math.pi / s))
        n2 = int(math.ceil(math.pi / s)) + 1
        count = n1 * n1 * n2
    _refuse_above_limit(count, "radius-ratio", epsilon)

    if d == 2:
        rots = _ring(t)
    else:
        mats = []
        for p1 in 2.0 * math.pi * np.arange(n1) / n1:
            for p2 in np.linspace(0.0, math.pi, n2):
                for p3 in 2.0 * math.pi * np.arange(n1) / n1:
                    mats.append(_euler_zyz(p1, p2, p3))
        rots = tuple(Rotation(m) for m in mats)

    net = RotationNet(rots, epsilon, SUFFICIENT_BOUND)
    mats = net.matrices
    target = 1.0 - epsilon
    for trial in range(20):
        D = random_rotation(d, seed=trial)
        frob = np.linalg.norm(mats - D.matrix, axis=(1, 2))
        # ||.||_op <= ||.||_F <= sqrt(d) ||.||_op, so every element within
        # operator distance rho sits in this candidate slice
        cand = np.nonzero(frob <= math.sqrt(d) * rho + 1e-9)[0]
        if cand.size == 0:
            raise RuntimeError("covering radius check failed; spacing bound is wrong")
        ops = [np.linalg.norm(mats[j] - D.matrix, ord=2) for j in cand]
        j = int(cand[int(np.argmin(ops))])
        if min(ops) > rho + 1e-9:
            raise RuntimeError("covering radius check failed; spacing bound is wrong")
        rel = D.inverse().compose(net.rotations[j])
        if not fit_check(K, rel, target, PK):
            raise RuntimeError("spacing bound did not certify a fit; bound is wrong")
    return net


# ---------------------------------------------------------------------------
# sampling verification


@dataclass(eq=False)
class NetReport:
    """Outcome of spot-checking the net property on sampled rotations."""

    trials: int
    passes: int
    failures: int
    worst_margin: float
    failed_rotations: tuple

    @property
    def ok(self):
        return self.failures == 0


def verify_net(net: RotationNet, K: VPolytope, trials: int = 100, seed: int = 0,
               rotations=None) -> NetReport:
    """Check that sampled rotated copies of K contain a shrunk net copy.

    For each test rotation D (Haar samples, or the explicit `rotations` if
    given), find a net element A_i such that a translate of (1-eps)A_iK
    fits inside DK.  Net elements are tried nearest-first, so sound nets
    cost one fit probe per trial.  Never raises: the report carries the
    pass/fail counts, the worst fit margin seen, and the failing rotations.
    """
    if net.dim != K.dim:
        raise ValueError("net and body disagree on dimension")
    PK = K.hull_halfspaces()
    target = 1.0 - net.epsilon
    if rotations is not None:
        tests = [r if isinstance(r, Rotation) else Rotation(np.asarray(r, dtype=float))
                 for r in rotations]
    else:
        tests = [random_rotation(K.dim, seed=int(s))
                 for s in np.random.SeedSequence(seed).generate_state(trials)]
    mats = net.matrices
    passes = 0
    failed = []
    worst = math.inf
    for D in tests:
        order = np.argsort(np.linalg.norm(mats - D.matrix, axis=(1, 2)))
        trial_best = -math.inf
        hit = False
        for j in order:
            rel = D.inverse().compose(net.rotations[int(j)])
            m = _margin(K, rel, PK, target)
            trial_best = max(trial_best, m)
            if m >= -1e-9:
                hit = True
                break
        worst = min(worst, trial_best)
        if hit:
            passes += 1
        else:
            failed.append(D.matrix)
    return NetReport(len(tests), passes, len(tests) - passes, worst, tuple(failed))
