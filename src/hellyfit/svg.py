"""Static SVG pictures of fits and of the tangent-family demonstrations.

The drawings are plain hand-written SVG with no dependencies: a fit picture
shows the container outline, the basis half-space boundaries highlighted,
and exactly one polygon element for the placed copy; a demonstration
picture shows the tangent lines around the unit circle, the body, and one
certified inflated placement.  Containers can be unbounded, so everything
is clipped to a viewport box computed from the bounded pieces.
"""

import math

import numpy as np

from .geometry import DegenerateGeometryError, HPolytope, convex_hull_2d


def _hull_points(pts):
    return pts[convex_hull_2d(pts)]

VIEW_SIZE = 480.0
PAD_FRACTION = 0.12

_STYLE = (
    "polygon.copy{fill:#7db8e8;fill-opacity:.55;stroke:#1f5fa8;stroke-width:1.5}"
    "path.container{fill:none;stroke:#333;stroke-width:1.5}"
    "path.body{fill:none;stroke:#777;stroke-width:1;stroke-dasharray:4 3}"
    "line.basis{stroke:#d62728;stroke-width:1.8}"
    "line.tangent{stroke:#999;stroke-width:1}"
    "circle.guide{fill:none;stroke:#ccc;stroke-width:.75;stroke-dasharray:2 3}"
)


def _clip_to_box(P: HPolytope, lo, hi):
    """Vertices of P intersected with the box [lo, hi]^2, hull ordered.

    Sutherland-Hodgman: each half-plane in turn cuts the convex polygon,
    which keeps its inside vertices and gains the crossings of its edges.
    """
    poly = np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]], dtype=float)
    for u, b in zip(P.normals, P.offsets):
        s = poly @ u - b
        inside = s <= 0.0
        if inside.all():
            continue
        if not inside.any():
            return np.zeros((0, 2))
        nxt, s_nxt = np.roll(poly, -1, axis=0), np.roll(s, -1)
        cross = inside != np.roll(inside, -1)
        t = s[cross] / (s[cross] - s_nxt[cross])
        parts = np.stack([poly, poly], axis=1)
        parts[cross, 1] = poly[cross] + t[:, None] * (nxt[cross] - poly[cross])
        poly = parts[np.stack([inside, cross], axis=1)]
    try:
        return _hull_points(poly)
    except DegenerateGeometryError:
        return np.zeros((0, 2))


def _line_box_clip(point, direction, lo, hi):
    """Segment of the line point + t*direction inside the box, or None."""
    t0, t1 = -math.inf, math.inf
    for axis in (0, 1):
        p, d = point[axis], direction[axis]
        if abs(d) < 1e-15:
            if not (lo[axis] - 1e-12 <= p <= hi[axis] + 1e-12):
                return None
            continue
        a, b = (lo[axis] - p) / d, (hi[axis] - p) / d
        t0, t1 = max(t0, min(a, b)), min(t1, max(a, b))
    if not (math.isfinite(t0) and math.isfinite(t1)) or t0 >= t1:
        return None
    return point + t0 * direction, point + t1 * direction


class _Canvas:
    """World-to-pixel mapping plus element accumulation."""

    def __init__(self, lo, hi):
        span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
        pad = PAD_FRACTION * span
        self.lo = np.asarray(lo, dtype=float) - pad
        self.hi = np.asarray(hi, dtype=float) + pad
        self.scale = VIEW_SIZE / max(self.hi[0] - self.lo[0],
                                     self.hi[1] - self.lo[1])
        self.parts = []

    def pix(self, p):
        x = (p[0] - self.lo[0]) * self.scale
        y = (self.hi[1] - p[1]) * self.scale
        return f"{x:.2f},{y:.2f}"

    def polygon(self, pts, cls):
        joined = " ".join(self.pix(p) for p in pts)
        self.parts.append(f'<polygon class="{cls}" points="{joined}"/>')

    def path(self, pts, cls):
        if len(pts) == 0:
            return
        coords = [self.pix(p) for p in pts]
        d = "M" + " L".join(coords) + "Z"
        self.parts.append(f'<path class="{cls}" d="{d}"/>')

    def line(self, a, b, cls):
        pa, pb = self.pix(a).split(","), self.pix(b).split(",")
        self.parts.append(
            f'<line class="{cls}" x1="{pa[0]}" y1="{pa[1]}"'
            f' x2="{pb[0]}" y2="{pb[1]}"/>')

    def circle(self, center, radius, cls):
        c = self.pix(center).split(",")
        self.parts.append(
            f'<circle class="{cls}" cx="{c[0]}" cy="{c[1]}"'
            f' r="{radius * self.scale:.2f}"/>')

    def render(self):
        w = (self.hi[0] - self.lo[0]) * self.scale
        h = (self.hi[1] - self.lo[1]) * self.scale
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}"'
            f' height="{h:.0f}" viewBox="0 0 {w:.2f} {h:.2f}">'
            f"<style>{_STYLE}</style>" + "".join(self.parts) + "</svg>")


def _copy_vertices(K, placement):
    img = placement.translation + placement.scale * (
        K.vertices @ placement.rotation.matrix.T)
    return _hull_points(img)


def render_fit_svg(K, P: HPolytope, result, path=None) -> str:
    """Picture of a fit: container, placed copy, basis boundaries.

    The placed copy is the single polygon element in the drawing; when the
    result carries no placement (empty or unbounded container) only the
    container outline and basis lines are drawn.
    """
    if K.dim != 2:
        raise ValueError("fit pictures are drawn in the plane only")
    copy_pts = np.zeros((0, 2))
    if result.placement is not None and np.isfinite(result.beta):
        copy_pts = _copy_vertices(K, result.placement)
    if len(copy_pts) > 0:
        center = copy_pts.mean(axis=0)
        radius = max(np.linalg.norm(copy_pts - center, axis=1).max(), 1e-6)
        lo, hi = center - 3.0 * radius, center + 3.0 * radius
    else:
        lo, hi = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    outline = _clip_to_box(P, lo, hi)
    if len(outline) > 0:
        lo = np.minimum(lo, outline.min(axis=0))
        hi = np.maximum(hi, outline.max(axis=0))

    canvas = _Canvas(lo, hi)
    canvas.path(outline, "container")
    for idx in result.basis:
        u, b = P.normals[idx], P.offsets[idx]
        seg = _line_box_clip(b * u, np.array([-u[1], u[0]]),
                             canvas.lo, canvas.hi)
        if seg is not None:
            canvas.line(seg[0], seg[1], "basis")
    if len(copy_pts) > 0:
        canvas.polygon(copy_pts, "copy")
    text = canvas.render()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def render_demo_svg(K, family, placement, path=None) -> str:
    """Picture of a demonstration: tangent lines, body, one inflated copy."""
    lo, hi = np.array([-2.2, -2.2]), np.array([2.2, 2.2])
    canvas = _Canvas(lo, hi)
    canvas.circle(np.zeros(2), 1.0, "guide")
    for u in family.contact_points:
        seg = _line_box_clip(u.astype(float), np.array([-u[1], u[0]]),
                             canvas.lo, canvas.hi)
        if seg is not None:
            canvas.line(seg[0], seg[1], "tangent")
    canvas.path(_hull_points(K.vertices), "body")
    if placement is not None:
        canvas.polygon(_copy_vertices(K, placement), "copy")
    text = canvas.render()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
