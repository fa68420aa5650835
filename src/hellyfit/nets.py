"""Finite rotation nets.

A net for a body K at accuracy eps is a finite list of rotations A_1..A_t
such that every rotated copy of K contains a translate of (1-eps)A_iK for
some i.  Equivalently, for every rotation D there is a net element within
the body's rotational slack: a shrunk copy at the relative rotation still
fits inside K.  A net is one stack of orthogonal matrices; the builders
make rotations, and `RotationNet.with_reflections` adds mirror images.

Two builders are provided.  The planar one measures the slack angle of K
directly (`max_angle_2d`) and spaces rotations accordingly; it produces the
smallest nets this module knows how to certify.  The general builder uses
only the inradius/circumradius ratio and covers the rotation group at
operator-norm resolution eps*r/R, which is sufficient for any convex body
but typically far from tight.  Both refuse nets of more than NET_LIMIT
rotations.  Neither builder exploits symmetries of K: a square gets four
rotations even though one would do.  The solver does, by solving the
rotations whose copies of K are translates of one another only once.

The planar builder follows beta(theta), the largest scale of R_theta K
inside K, exactly.  That scale is an LP, max s subject to <u_i, a> +
s h_i(theta) <= b_i over K's own hull rows, with h_i(theta) =
max_j <u_i, R_theta v_j>.  Its dual rays lambda (lambda >= 0, sum lambda_i
u_i = 0) do not depend on theta, and between the angles where some h_i
switches vertex each ray gives beta <= (b . lambda) / (A cos + B sin).  So
a walk from theta = 0 that pivots from one optimal basis to the next
(`_walk`) finds every event, every crossing of 1 - eps and every minimum of
beta in closed form; it solves no LP.

Both builders rest on one bound.  Let B(z, r) be K's inball, B(c, R) its
miniball and q = r/R.  If a + beta*R_theta K lies in K, rotate that copy
by delta about the image of c: each point moves by at most beta*|delta|*R.
Shrinking the result towards z by r / (r + beta*|delta|*R) puts it back
inside K, so

    beta(theta + delta) >= beta(theta) * r / (r + beta(theta)*|delta|*R).

The general builder's spacing rests on this argument at the identity.
Applied to the inball alone, the bound gives beta(theta) >= q at every
theta, so a body with q above 1 - eps has full slack and needs no walk.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ORTHO_TOL,
    DegenerateGeometryError,
    Rotation,
    UnsupportedDimensionError,
    VPolytope,
    convex_hull_2d,
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
CEIL_SLACK = 1e-6      # protects t = ceil(pi/alpha) from fp noise in alpha
NOISE_TOL = 1e-12      # walk slacks, dual weights and angles this small (relative) are 0
WINDOW = 3             # vertices per half-space that the walk follows at once
WALK_STEPS = 64        # the walk gives up after WALK_STEPS * m^2 pivots (m vertices)
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
    """The (t, 2, 2) stack of planar rotations at angles 2*pi*j/t, j = 1..t.

    Angles are taken modulo the full turn, so the last rotation is exactly
    the identity rather than a rotation by a rounded 2*pi.  The entries are
    `Rotation.from_angle`'s, from `math.cos` and `math.sin`.
    """
    angles = [2.0 * math.pi * (j % t) / t for j in range(1, t + 1)]
    c, s = np.array([[math.cos(a) for a in angles], [math.sin(a) for a in angles]])
    return np.stack([c, -s, s, c], axis=1).reshape(t, 2, 2)


def _margin(K, rotation, PK, target):
    """K's scale inside its hull PK at a rotation, less target; -1 unless optimal."""
    res = beta_fixed_rotation(K, rotation, PK)
    return res.value - target if res.ok else -1.0


class RotationNet:
    """Immutable (t, d, d) stack `matrices` of orthogonal matrices, from a
    sequence of `Rotation`s or such an array, with the accuracy they were
    built for; which body they are for is `cached_net_2d`'s key, not the
    net's.  `net[i]` and `rotations` build `Rotation`s on access."""

    def __init__(self, rotations, epsilon, certificate):
        M = np.array(rotations if isinstance(rotations, np.ndarray)
                     else [r.matrix for r in rotations], dtype=float)
        if len(M) < 1:
            raise ValueError("a net needs at least one rotation")
        if np.abs(M.transpose(0, 2, 1) @ M - np.eye(M.shape[1])).max() > ORTHO_TOL:
            raise ValueError("a net matrix is not orthogonal within tolerance")
        if not (0.0 < epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if certificate not in _CERTIFICATES:
            raise ValueError(f"unknown certificate {certificate!r}")
        M.flags.writeable = False
        self.matrices, self.epsilon, self.certificate = M, epsilon, certificate

    def __len__(self):
        return len(self.matrices)

    def __getitem__(self, i):
        return Rotation(self.matrices[i])

    @property
    def rotations(self):
        return tuple(self)

    @property
    def dim(self):
        return self.matrices.shape[1]

    def with_reflections(self):
        """The t matrices A_i, then A_i F for F = diag(-1, 1, ..., 1): a net
        for every isometry, at most 2 * NET_LIMIT matrices.

        For an improper D, D^-1 (A_i F) = F ((DF)^-1 A_i) F conjugates the
        relative rotation of the net element A_i for the rotation DF.  In
        the plane the conjugate turns by the opposite angle, which the
        slack angle covers too (|theta| <= alpha, `max_angle_2d`); the
        radius-ratio covering bounds an operator norm, which F keeps.
        """
        flip = np.ones(self.dim)
        flip[0] = -1.0
        return RotationNet(np.concatenate([self.matrices, self.matrices * flip]),
                           self.epsilon, self.certificate)

    def angles(self):
        if self.dim != 2:
            raise UnsupportedDimensionError("angles are only defined for 2-d nets")
        return np.array([r.angle for r in self])

    def to_json(self):
        return {
            "epsilon": self.epsilon,
            "certificate": self.certificate,
            "rotations": self.matrices.reshape(len(self), -1).tolist(),
        }


# ---------------------------------------------------------------------------
# planar slack angle


def _net_size(alpha):
    """Rotations t = ceil(pi / alpha) of the planar net for slack angle alpha.

    The one place t is computed.  The ceiling is taken with CEIL_SLACK
    because alpha is resolved numerically.  t does not increase with alpha;
    at alpha = 0 it is infinite.
    """
    if alpha <= 0.0:
        return math.inf
    return max(1, int(math.ceil(math.pi / alpha - CEIL_SLACK)))


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


def _corners(W):
    """The counterclockwise polygon W without its vertices where the
    boundary turns by less than NOISE_TOL radians.

    At such a vertex, which a hull keeps when rounding puts it a hair
    outside the chord, the two edge normals agree to rounding, and no
    basis of the walk can tell them apart.  Dropping it moves the boundary
    by less than NOISE_TOL times the edge length.
    """
    E = np.roll(W, -1, axis=0) - W
    before = np.roll(E, 1, axis=0)
    turn = _cross(before, E)
    return W[turn > NOISE_TOL * np.hypot(*before.T) * np.hypot(*E.T)]


def _walk_frame(W):
    """K's hull rows for the walk, from its counterclockwise vertices W.

    Returns the unit edge normals U (edge j runs from W[j] to W[j + 1]),
    the offsets b and the normals' angles, increasing from that of u_0.
    """
    E = np.roll(W, -1, axis=0) - W
    N = np.stack([E[:, 1], -E[:, 0]], axis=1)
    U = N / np.sqrt((N * N).sum(axis=1))[:, None]
    ang = np.arctan2(U[:, 1], U[:, 0])
    return U, (U * W).sum(axis=1), ang[0] + np.mod(ang - ang[0], 2.0 * math.pi)


def _support(U, W, j, k):
    """<u_j, R_theta w_k> = c cos(theta) + s sin(theta); returns (c, s)."""
    u, w = U[j], W[k]
    return (u[..., 0] * w[..., 0] + u[..., 1] * w[..., 1],
            u[..., 1] * w[..., 0] - u[..., 0] * w[..., 1])


def _cross(p, q):
    """z-component of p x q, row by row."""
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


def _start_basis(ang):
    """Edge 0 and the two consecutive edges whose normals' cone holds -u_0.

    Their normals hold the origin in their hull, so they form a dual ray;
    any ray would do, since the pivots at theta = 0 reach the optimal one.
    `ang` are the normals' angles, increasing from that of u_0.
    """
    a = int(np.searchsorted(ang, ang[0] + math.pi, side="right")) - 1
    return np.array([0, a, (a + 1) % len(ang)])


def _dual(U, b, rows):
    """The basis' dual ray: mu with sum mu_l u_l = 0, scaled to mu . b = 1."""
    n = U[rows]
    mu = np.array([_cross(n[1], n[2]), _cross(n[2], n[0]), _cross(n[0], n[1])])
    size = mu @ b[rows]
    return mu / size if size != 0.0 else np.full(3, math.nan)


def _pivot(U, b, J, V, mu, rho, j, k, m):
    """Row (j, k) enters the basis; the ratio test picks the row it replaces.

    The duals on the basis and the entering row form the line
    mu cos(tau) + rho sin(tau), tau in [0, pi]; the first basis row whose
    weight reaches zero leaves, the lowest row index among ties.  A weight
    that is zero and stays zero, or a replacement that leaves no dual ray,
    rules its row out.
    """
    free = mu <= NOISE_TOL * np.abs(mu).max()
    flat = np.abs(rho) <= NOISE_TOL * np.abs(rho).max()
    tau = np.where(free, np.where(flat | (rho > 0.0), math.pi, 0.0),
                   np.arctan2(mu, -rho))
    lim = tau.min() + NOISE_TOL
    for out in sorted(range(3), key=lambda l: (tau[l] > lim, tau[l] if tau[l] > lim else 0.0,
                                                  J[l] * m + V[l])):
        J2, V2 = J.copy(), V.copy()
        J2[out], V2[out] = j, k
        mu2 = _dual(U, b, J2)
        if np.all(np.isfinite(mu2)) and mu2.min() >= -NOISE_TOL * np.abs(mu2).max():
            return J2, V2, mu2
    raise RuntimeError("no row of the walk's basis can leave; this is a bug")


def _window(ang, theta):
    """The vertex rows the walk follows from theta on, and for how long.

    As theta grows, the vertex of K that h_j(theta) reads moves clockwise,
    from one edge normal's angle to the next.  Half-space j's rows are the
    WINDOW vertices from the one read just after theta on; they stay the
    only candidates until some half-space's direction leaves its last one,
    `reach` radians on (infinite when the window holds every vertex).
    """
    m = len(ang)
    t = ang[0] + np.mod(ang - theta - ang[0], 2.0 * math.pi)
    size = min(WINDOW, m)
    k = (np.searchsorted(ang, t)[:, None] - np.arange(size)) % m
    if size == m:
        return k, math.inf
    return k, float(np.mod(t - ang[(k[:, -1] - 1) % m], 2.0 * math.pi).min())


def _rates(U, b, W, J, V, mu, j, k):
    """The basis' D = Dc cos + Ds sin, and slack * D = X cos + Y sin of rows (j, k).

    Also returns each half-space's rho on the basis and, per row, the size
    of the terms that X and Y sum.
    """
    hc, hs = _support(U, W, J, V)
    Dc, Ds = float(mu @ hc), float(mu @ hs)
    UB = U[J]
    (g11, g12), (_, g22) = UB.T @ UB
    M = np.array([[g22, -g12], [-g12, g11]]) @ UB.T / (g11 * g22 - g12 * g12)
    rho = -(U @ M)                          # rho_B of every half-space
    r = rho @ b[J] + b
    c, s = _support(U, W, j, k)
    size = (np.abs(rho).sum(axis=1) + 2.0) * (math.hypot(Dc, Ds) + 1.0)
    return (Dc, Ds, rho, (r * Dc - rho @ hc)[j] - c, (r * Ds - rho @ hs)[j] - s,
            size[j])


def _walk(W, target):
    """Where the stop rule ends the walk over theta in (0, pi]; pi if nowhere.

    W is the body's hull, counterclockwise, centred at its inball centre
    and scaled to circumradius 1.  The rows of the scale LP are its vertex
    rows (j, k): <u_j, a> + s <u_j, R_theta w_k> <= b_j.  A basis is three
    rows; its dual ray mu does not depend on theta, so its scale is
    1 / D(theta) with D = mu . h_B(theta) = Dc cos(theta) + Ds sin(theta).
    For a row e outside the basis, let rho (rho_e = 1) combine e and the
    basis normals to zero.  Summing the rows with weights rho gives
    slack_e * D = (rho . b) D - rho . h, again of the form X cos + Y sin:
    the next row to become tight is one atan2 per row, `_pivot`'s ratio
    test picks the row that leaves, and the scale's crossing of
    target + TOUCH_TOL (acos) and its minimum (atan2) are read off D in
    closed form.  Only the rows of `_window` are followed, so a step costs
    O(m) for m vertices.  After each event only the rows tight there are
    followed until none is about to turn negative: at theta = 0, where
    every row on an edge is tight, these pivots find the basis optimal just
    after 0.  Rows whose slack is identically zero under the basis (ties,
    as on symmetric bodies) never enter.
    """
    U, b, ang = _walk_frame(W)
    m = len(b)
    J = _start_basis(ang)             # basis half-spaces
    V = J.copy()                      # the vertex of each basis row
    mu = _dual(U, b, J)
    hi, lo = target + TOUCH_TOL, target - FAIL_TOL
    theta, cross, settled = 0.0, None, 0
    edge = np.arange(m)
    tight = (np.concatenate([edge, edge]), np.concatenate([edge, (edge + 1) % m]))
    for _ in range(WALK_STEPS * m * m):
        if tight is None:
            k, reach = _window(ang, theta)
            j = np.broadcast_to(edge[:, None], k.shape)
        else:
            j, k = tight
        Dc, Ds, rho, X, Y, size = _rates(U, b, W, J, V, mu, j, k)
        c0, s0 = math.cos(theta), math.sin(theta)
        now, slope = X * c0 + Y * s0, Y * c0 - X * s0
        # time to the next zero of slack * D on its way down; 0 if past it
        phase = np.arctan2(-slope, now)
        wait = np.where(phase <= 0.5 * math.pi, 0.5 * math.pi - phase, 0.0)
        row = j * m + k
        basis = (row == J[0] * m + V[0]) | (row == J[1] * m + V[1]) | (row == J[2] * m + V[2])
        wait[(np.hypot(now, slope) <= NOISE_TOL * size) | basis] = math.inf
        if tight is not None:
            go = wait <= NOISE_TOL
            if go.any():
                # the fastest falling row enters; after m such pivots at one
                # angle, the lowest row index (Bland's rule, which cannot cycle)
                pick = np.flatnonzero(go)
                pick = pick[np.argmin(slope[go])] if settled < m else pick[np.argmin(row[go])]
                J, V, mu = _pivot(U, b, J, V, mu, rho[j[pick]], j[pick], k[pick], m)
                settled += 1
            else:
                tight = None
            continue
        event = theta + float(wait.min())
        end = min(event, theta + reach, math.pi)

        def scale(x):
            return 1.0 / (Dc * math.cos(x) + Ds * math.sin(x))

        psi = theta + math.remainder(math.atan2(Ds, Dc) - theta, 2.0 * math.pi)
        if cross is None and math.hypot(Dc, Ds) * hi >= 1.0:
            gap = math.acos(1.0 / (math.hypot(Dc, Ds) * hi))
            first = max(theta, psi - gap)
            if first <= min(end, psi + gap):
                cross = first
        if cross is not None:
            if psi <= end:              # the dip's minimum
                at = max(psi, theta)
                return at if scale(at) >= lo else cross
            if end >= math.pi:
                return math.pi if scale(math.pi) >= lo else cross
            if scale(end) < lo:
                return cross
        if end >= math.pi:
            return math.pi

        theta = end
        if event <= end:
            c0, s0 = math.cos(theta), math.sin(theta)
            zero = np.abs(X * c0 + Y * s0) <= NOISE_TOL * size
            tight, settled = (j[zero], k[zero]), 0
    raise RuntimeError("the slack-angle walk did not end; this is a bug")


def _slack_angle(K: VPolytope, epsilon: float):
    """alpha of `max_angle_2d`, with the copy Kc of K's hull centred on its
    vertex mean and Kc's half-spaces PK, for the net's probes.

    beta(theta) does not change when K moves.  Centred, the inradius LP and
    the probes solve rows whose offsets are of K's size: far from the
    origin, the LP's offset-relative tolerances would swamp a small body.
    """
    if K.dim != 2:
        raise UnsupportedDimensionError("max_angle_2d is planar only")
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    if not K.is_full_dimensional():
        raise DegenerateGeometryError("body must be full-dimensional")
    with np.errstate(over="ignore", invalid="ignore"):
        V = K.vertices[convex_hull_2d(K.vertices)]
    Kc = VPolytope(V - V.mean(axis=0))
    PK = Kc.hull_halfspaces()
    target = 1.0 - epsilon
    if epsilon <= TOUCH_TOL:
        return 0.0, Kc, PK
    inball = chebyshev_inradius(PK)
    R = _circumradius(Kc)
    if max(0.0, inball.radius) / R > target + TOUCH_TOL + FAIL_TOL:
        return math.pi, Kc, PK
    W = _corners((Kc.vertices - inball.center) / R)
    mirror = W[::-1] * np.array([1.0, -1.0])
    return min(_walk(W, target), _walk(mirror, target)), Kc, PK


def max_angle_2d(K: VPolytope, epsilon: float) -> float:
    """Largest alpha such that (1-eps)R_theta K fits in K for all |theta| <= alpha.

    beta(theta), the largest scale of R_theta K inside K, is followed
    exactly from theta = 0 in both directions (fit slack is not symmetric
    for bodies without mirror symmetry) by a walk along the dual of the
    scale LP (`_walk`); the walk in the negative direction is the walk of
    K's mirror image.  The walk stops at the first dip of beta that reaches
    1 - eps + TOUCH_TOL: at the dip's minimum if that lies within
    [1 - eps - FAIL_TOL, 1 - eps + TOUCH_TOL], a boundary contact, and
    where beta crosses 1 - eps + TOUCH_TOL otherwise.  Capped at pi, which
    means every rotation fits.  If the inradius/circumradius ratio q = r/R
    exceeds 1 - eps (plus TOUCH_TOL and FAIL_TOL), every rotation fits,
    since beta(theta) >= q at every theta (module docstring), and pi is
    returned without a walk.  One LP is solved, the inradius.
    """
    return _slack_angle(K, epsilon)[0]


def build_net_2d(K: VPolytope, epsilon: float) -> RotationNet:
    """Uniform planar net with spacing set by the slack angle.

    t = ceil(pi / alpha) rotations at angles 2*pi*j/t, j = 1..t, with alpha
    from `max_angle_2d`.  The ceiling is taken with a small slack; two fit
    LPs at the worst-case relative angles +-pi/t then confirm the spacing
    independently of the walk (and densify as a last resort, which no
    known input triggers).  Above NET_LIMIT rotations it raises
    NetTooLargeError before building any.
    """
    if K.dim != 2:
        raise UnsupportedDimensionError("build_net_2d is planar only")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    alpha, Kc, PK = _slack_angle(K, epsilon)
    if alpha <= 0.0:
        raise DegenerateGeometryError(
            "body has no rotational slack at this epsilon; increase epsilon")
    t = _net_size(alpha)
    target = 1.0 - epsilon
    for _ in range(3):
        if fit_check(Kc, Rotation.from_angle(math.pi / t), target, PK) and \
           fit_check(Kc, Rotation.from_angle(-math.pi / t), target, PK):
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


def _turns(angles, axis):
    """The (k, 3, 3) stack of rotations by `angles` about coordinate `axis`."""
    i, j = (axis + 1) % 3, (axis + 2) % 3
    c, s = np.array([[math.cos(a) for a in angles], [math.sin(a) for a in angles]])
    M = np.zeros((len(angles), 3, 3))
    M[:, axis, axis] = 1.0
    M[:, i, i], M[:, j, j], M[:, i, j], M[:, j, i] = c, c, -s, s
    return M


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
        mats = _ring(t)
    else:
        # the ZYZ Euler grid Rz(p1) Ry(p2) Rz(p3), p3 fastest
        rz = _turns(2.0 * math.pi * np.arange(n1) / n1, 2)
        ry = _turns(np.linspace(0.0, math.pi, n2), 1)
        mats = ((rz[:, None] @ ry[None, :])[:, :, None] @ rz[None, None, :]).reshape(-1, 3, 3)

    net = RotationNet(mats, epsilon, SUFFICIENT_BOUND)
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
        rel = D.inverse().compose(net[j])
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
        tests = [Rotation(getattr(r, "matrix", r)) for r in rotations]
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
            rel = D.inverse().compose(net[j])
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
