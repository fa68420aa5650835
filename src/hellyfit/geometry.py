"""Geometric primitives shared by every stage of the fitting pipeline.

Conventions used throughout the package:

* points are 1-d float arrays of length d,
* half-spaces are stored as {x : <normal, x> <= offset} with a unit normal,
* rotations are proper (det +1) orthogonal matrices,
* bodies that genuinely touch the unit circle along arcs carry an explicit
  arc descriptor (`CircleArcs`), because a polygon's intersection with the
  circle is a finite, hence null, set.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

UNIT_NORM_TOL = 1e-12      # unit-normal invariant for half-spaces
ORTHO_TOL = 1e-10          # orthogonality / determinant tolerance for rotations


class DimensionMismatchError(ValueError):
    """Inputs disagree about the ambient dimension."""


class UnsupportedDimensionError(ValueError):
    """The requested operation is not implemented in this dimension."""


class DegenerateGeometryError(ValueError):
    """The input is too degenerate for the operation (empty, zero radius, ...)."""


def as_point(x, dim=None):
    """Coerce to a finite 1-d float array, optionally checking its length."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d point, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.shape[0]}")
    return p


# ---------------------------------------------------------------------------
# half-spaces and polytopes


@dataclass(eq=False)
class HPolytope:
    """Intersection of finitely many half-spaces, stored as unit rows."""

    normals: np.ndarray   # (n, d), unit rows
    offsets: np.ndarray   # (n,)

    def __post_init__(self):
        A = np.asarray(self.normals, dtype=float)
        b = np.asarray(self.offsets, dtype=float).reshape(-1)
        if A.ndim != 2:
            raise DimensionMismatchError("normals must be a 2-d array")
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatchError("normals and offsets disagree on row count")
        if A.shape[0] > 0:
            norms = np.linalg.norm(A, axis=1)
            if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
                raise ValueError("H-polytope rows must have unit normals")
        self.normals = A
        self.offsets = b

    @classmethod
    def from_rows(cls, rows, offsets):
        """Normalize general rows <a_i, x> <= b_i; zero rows are rejected."""
        A = np.asarray(rows, dtype=float)
        b = np.asarray(offsets, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise DimensionMismatchError("bad constraint arrays")
        norms = np.linalg.norm(A, axis=1)
        if not np.all(np.isfinite(norms)):
            raise DegenerateGeometryError(
                "half-space normal has a non-finite norm: the hull overflowed;"
                " scale the body down")
        if np.any(norms < 1e-14):
            raise DegenerateGeometryError("zero normal in half-space data")
        return cls(A / norms[:, None], b / norms)

    @property
    def dim(self):
        return self.normals.shape[1]

    def __len__(self):
        return self.normals.shape[0]

    def take(self, indices):
        idx = np.asarray(indices, dtype=int)
        return HPolytope(self.normals[idx].copy(), self.offsets[idx].copy())

    def translated(self, w):
        w = as_point(w, self.dim)
        return HPolytope(self.normals.copy(), self.offsets + self.normals @ w)

    def rotated(self, rotation):
        return HPolytope(self.normals @ rotation.matrix.T, self.offsets.copy())

    def scaled(self, lam):
        if lam <= 0:
            raise ValueError("scale must be positive")
        return HPolytope(self.normals.copy(), self.offsets * float(lam))


@dataclass(eq=False)
class VPolytope:
    """Convex hull of finitely many vertices."""

    vertices: np.ndarray  # (m, d)

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] == 0:
            raise DimensionMismatchError("vertices must be a nonempty (m, d) array")
        if not np.all(np.isfinite(V)):
            raise ValueError("non-finite vertex coordinates")
        self.vertices = V

    @property
    def dim(self):
        return self.vertices.shape[1]

    def __len__(self):
        return self.vertices.shape[0]

    def translated(self, w):
        return VPolytope(self.vertices + as_point(w, self.dim))

    def rotated(self, rotation):
        return VPolytope(self.vertices @ rotation.matrix.T)

    def scaled(self, lam):
        return VPolytope(self.vertices * float(lam))

    def is_full_dimensional(self):
        V = self.vertices - self.vertices.mean(axis=0)
        if len(self) < self.dim + 1:
            return False
        s = np.linalg.svd(V, compute_uv=False)
        return bool(s.shape[0] >= self.dim and s[self.dim - 1] > 1e-9 * max(1.0, s[0]))

    def hull_halfspaces(self):
        """Facet half-spaces of the hull (full-dimensional input required).

        Coordinates so large that the facet rows overflow raise
        DegenerateGeometryError from `HPolytope.from_rows`, without numpy's
        overflow warnings.
        """
        if self.dim == 2:
            with np.errstate(over="ignore", invalid="ignore"):
                return _hull_halfspaces_2d(self.vertices)
        if self.dim == 3:
            from scipy.spatial import ConvexHull

            hull = ConvexHull(self.vertices)
            # scipy rows are [a, b] with a.x + b <= 0
            eq = hull.equations
            with np.errstate(over="ignore", invalid="ignore"):
                return HPolytope.from_rows(eq[:, :-1], -eq[:, -1])
        raise UnsupportedDimensionError(f"hull half-spaces unsupported in d={self.dim}")


def convex_hull_2d(points):
    """Indices of hull vertices in counterclockwise order (monotone chain)."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2:
        raise DimensionMismatchError("convex_hull_2d wants an (m, 2) array")
    order = np.lexsort((P[:, 1], P[:, 0]))

    def cross(o, a, b):
        return (P[a, 0] - P[o, 0]) * (P[b, 1] - P[o, 1]) - (P[a, 1] - P[o, 1]) * (P[b, 0] - P[o, 0])

    lower = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper = []
    for i in order[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateGeometryError("2-d hull is degenerate (collinear points)")
    return np.array(hull, dtype=int)


def _hull_halfspaces_2d(vertices):
    idx = convex_hull_2d(vertices)
    V = vertices[idx]
    rows, offs = [], []
    m = len(V)
    for i in range(m):
        p, q = V[i], V[(i + 1) % m]
        e = q - p
        n = np.array([e[1], -e[0]])  # outward for ccw ordering
        rows.append(n)
        offs.append(float(n @ p))
    return HPolytope.from_rows(np.stack(rows), np.array(offs))


# ---------------------------------------------------------------------------
# rotations and placements


@dataclass(eq=False)
class Rotation:
    """Proper rotation: orthogonal matrix with determinant +1."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatchError("rotation matrix must be square")
        d = M.shape[0]
        if np.max(np.abs(M.T @ M - np.eye(d))) > ORTHO_TOL:
            raise ValueError("matrix is not orthogonal within tolerance")
        if abs(np.linalg.det(M) - 1.0) > ORTHO_TOL:
            raise ValueError("matrix is orthogonal but not proper (det != +1)")
        self.matrix = M

    @classmethod
    def identity(cls, d):
        return cls(np.eye(d))

    @classmethod
    def from_angle(cls, theta):
        c, s = math.cos(theta), math.sin(theta)
        return cls(np.array([[c, -s], [s, c]]))

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def angle(self):
        if self.dim != 2:
            raise UnsupportedDimensionError("angle is only defined for d=2 rotations")
        return math.atan2(self.matrix[1, 0], self.matrix[0, 0])

    def apply(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T

    def inverse(self):
        return Rotation(self.matrix.T.copy())

    def compose(self, other):
        return Rotation(self.matrix @ other.matrix)


@dataclass(eq=False)
class Placement:
    """Similarity a + scale * rotation * x applied to a body."""

    translation: np.ndarray
    scale: float
    rotation: Rotation

    def __post_init__(self):
        self.translation = as_point(self.translation, self.rotation.dim)
        self.scale = float(self.scale)
        if self.scale < 0:
            raise ValueError("placement scale must be nonnegative")

    @property
    def dim(self):
        return self.rotation.dim

    def apply_points(self, points):
        return self.translation + self.scale * self.rotation.apply(points)

    def to_json(self):
        return {
            "translation": list(map(float, self.translation)),
            "scale": float(self.scale),
            "rotation": [float(x) for x in self.rotation.matrix.reshape(-1)],
        }


@dataclass(eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_point(self.center)
        self.radius = float(self.radius)
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")

    @property
    def dim(self):
        return self.center.shape[0]


@dataclass(eq=False)
class Cap:
    """Slacked half-sphere {x in S^(d-1) : <x, direction> >= -slack}.

    Slack 0 is the closed half-sphere; slack >= 1 covers the whole sphere.
    """

    direction: np.ndarray
    slack: float = 0.0

    def __post_init__(self):
        u = as_point(self.direction)
        norm = float(np.linalg.norm(u))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError("cap direction must be a unit vector")
        self.direction = u
        self.slack = float(self.slack)
        if self.slack < 0:
            raise ValueError("cap slack must be nonnegative")

    @property
    def dim(self):
        return self.direction.shape[0]

    @property
    def angular_halfwidth(self):
        """Half-width of the cap as an angle from `direction`."""
        return math.acos(-min(self.slack, 1.0))


# ---------------------------------------------------------------------------
# smallest enclosing ball


def _circumball(S):
    """Smallest ball with all rows of S on its boundary; returns (center, r^2).

    The center is the minimum-norm circumcenter in the affine hull of S,
    which is what the boundary-constrained subproblems of Welzl's recursion
    require.  Nearly affinely dependent boundary sets fall back to least
    squares.
    """
    if S.shape[0] == 1:
        return S[0].copy(), 0.0
    U = S[1:] - S[0]
    G = U @ U.T
    rhs = 0.5 * np.einsum("ij,ij->i", U, U)
    try:
        coef = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    rel = coef @ U
    center = S[0] + rel
    r2 = float(np.max(np.einsum("ij,ij->i", S - center, S - center)))
    return center, r2


def miniball(points, seed=0):
    """Smallest enclosing ball via Welzl's randomized recursion.

    The recursion is run with an explicit stack so large inputs cannot hit
    the interpreter's recursion limit.  The result is independent of `seed`
    (and of input order) up to 1e-9.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise DegenerateGeometryError("miniball needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite point coordinates")
    m, d = pts.shape
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)

    def boundary_ball(ridx):
        if not ridx:
            return np.zeros(d), 0.0
        return _circumball(pts[list(ridx)])

    # frames: [k, boundary, stage]; solves the prefix pts[order[:k]]
    stack = [[m, (), 0]]
    ret = None
    while stack:
        frame = stack[-1]
        k, boundary, stage = frame
        if k == 0 or len(boundary) == d + 1:
            ret = boundary_ball(boundary)
            stack.pop()
            continue
        if stage == 0:
            frame[2] = 1
            stack.append([k - 1, boundary, 0])
            continue
        if stage == 1:
            center, r2 = ret
            p = pts[order[k - 1]]
            gap = float(np.dot(p - center, p - center))
            if gap <= r2 + 1e-13 * (1.0 + r2):
                stack.pop()
                continue
            frame[2] = 2
            stack.append([k - 1, boundary + (order[k - 1],), 0])
            continue
        stack.pop()

    center, r2 = ret
    return Ball(center, math.sqrt(max(r2, 0.0)))


@dataclass(eq=False)
class SimilarityTransform:
    """Record of the similarity used by normalize_to_unit_ball."""

    center: np.ndarray
    radius: float

    def to_normalized(self, x):
        return (np.asarray(x, dtype=float) - self.center) / self.radius

    def to_original(self, y):
        return self.center + self.radius * np.asarray(y, dtype=float)

    def placement_to_original(self, p: Placement) -> Placement:
        """Re-express a placement of the normalized body as one of the original."""
        shift = p.translation - (p.scale / self.radius) * p.rotation.apply(self.center)
        return Placement(shift, p.scale / self.radius, p.rotation)


def normalize_to_unit_ball(body: VPolytope):
    """Translate and scale so the smallest enclosing ball becomes B(0, 1).

    Returns (normalized body, transform record).  Applying it twice is the
    identity up to 1e-9.
    """
    ball = miniball(body.vertices)
    if ball.radius < 1e-12:
        raise DegenerateGeometryError("body has zero circumradius")
    K = VPolytope((body.vertices - ball.center) / ball.radius)
    return K, SimilarityTransform(ball.center, ball.radius)


# ---------------------------------------------------------------------------
# circle arcs and cap measures (d = 2)


def _norm_angle(theta):
    """Reduce to [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    return t + TWO_PI if t < 0 else t


@dataclass(eq=False)
class CircleArcs:
    """Union of closed arcs of the unit circle, as (start, end) with end > start.

    Arcs are stored with start in [0, 2*pi) and length at most 2*pi; they are
    assumed pairwise disjoint modulo 2*pi.
    """

    arcs: tuple

    def __post_init__(self):
        cleaned = []
        for a, b in self.arcs:
            a, b = float(a), float(b)
            if b < a:
                raise ValueError("arc end must not precede its start")
            length = min(b - a, TWO_PI)
            s = _norm_angle(a)
            cleaned.append((s, s + length))
        self.arcs = tuple(cleaned)

    def measure(self):
        """Normalized arc-length measure (fraction of the full circle)."""
        return sum(b - a for a, b in self.arcs) / TWO_PI

    def rotated(self, dtheta):
        return CircleArcs(tuple((a + dtheta, b + dtheta) for a, b in self.arcs))

    def _cap_interval(self, cap: Cap):
        if cap.dim != 2:
            raise UnsupportedDimensionError("arc caps are 2-d only")
        hw = cap.angular_halfwidth
        phi = math.atan2(cap.direction[1], cap.direction[0])
        lo = _norm_angle(phi - hw)
        return lo, lo + 2.0 * hw

    def cap_overlap(self, cap: Cap):
        """Arc length (radians) of the part of the arcs inside the cap."""
        lo, hi = self._cap_interval(cap)
        total = 0.0
        for a, b in self.arcs:
            for k in (-1, 0, 1):
                total += max(0.0, min(b, hi + k * TWO_PI) - max(a, lo + k * TWO_PI))
        return total

    def restrict_to_cap(self, cap: Cap):
        """The actual sub-arcs lying inside the cap."""
        lo, hi = self._cap_interval(cap)
        pieces = []
        for a, b in self.arcs:
            for k in (-1, 0, 1):
                s = max(a, lo + k * TWO_PI)
                e = min(b, hi + k * TWO_PI)
                if e - s > 1e-15:
                    pieces.append((s, e))
        return CircleArcs(tuple(pieces))

    def angular_gap(self, theta):
        """Circular distance from angle theta to the arc set (0 if inside)."""
        if not self.arcs:
            return math.pi
        best = math.inf
        for a, b in self.arcs:
            # position of theta relative to [a, b] on the circle
            t = a + math.fmod(theta - a, TWO_PI)
            if t < a:
                t += TWO_PI
            if t <= b:
                return 0.0
            gap = min(t - b, a + TWO_PI - t)
            best = min(best, gap)
        return best

    def chord_distance(self, point):
        """Euclidean distance from a unit vector to the arc set."""
        p = as_point(point, 2)
        gap = self.angular_gap(math.atan2(p[1], p[0]))
        return 2.0 * math.sin(min(gap, math.pi) / 2.0)


def cap_measure_2d(body, cap: Cap):
    """Exact normalized measure of (body's circle part) intersected with a cap.

    Bodies that carry a `boundary_arcs` descriptor contribute their arcs;
    plain polytopes meet the circle in finitely many points, a null set, so
    they always measure 0.
    """
    if cap.dim != 2:
        raise UnsupportedDimensionError("cap_measure_2d requires d=2")
    arcs = getattr(body, "boundary_arcs", None)
    if arcs is None:
        if getattr(body, "dim", 2) != 2:
            raise UnsupportedDimensionError("cap_measure_2d requires a 2-d body")
        return 0.0
    return arcs.cap_overlap(cap) / TWO_PI


# ---------------------------------------------------------------------------
# Haar rotations


def random_rotation(d, seed=0):
    """Haar-distributed proper rotation.

    d = 2 draws a uniform angle; higher dimensions orthogonalize a Gaussian
    matrix (QR with the sign of R's diagonal fixed) and flip one column if
    needed to land in the det +1 component.
    """
    if d < 2:
        raise UnsupportedDimensionError("rotations need d >= 2")
    rng = np.random.default_rng(seed)
    if d == 2:
        return Rotation.from_angle(rng.uniform(0.0, TWO_PI))
    G = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    Q = Q * signs
    if np.linalg.det(Q) < 0:
        Q[:, -1] = -Q[:, -1]
    return Rotation(Q)


def shape_digest(body: VPolytope):
    """Stable digest of a body's shape (invariant under translation/scale)."""
    K, _ = normalize_to_unit_ball(body)
    quantized = np.round(K.vertices, 9)
    quantized += 0.0  # flush -0.0
    h = hashlib.sha256()
    h.update(str(K.dim).encode())
    h.update(quantized.tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# handy constructors used across tests and the CLI


def regular_polygon(sides, radius=1.0, phase=0.0):
    ang = phase + TWO_PI * np.arange(sides) / sides
    return VPolytope(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def unit_square():
    return VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def box_polytope(lo, hi):
    lo = as_point(lo)
    hi = as_point(hi, lo.shape[0])
    d = lo.shape[0]
    rows = np.vstack([np.eye(d), -np.eye(d)])
    offs = np.concatenate([hi, -lo])
    return HPolytope.from_rows(rows, offs)
