"""Loading the JSON descriptions of bodies and containers.

Bodies travel as vertex lists (or as arc-body recipes in the plane) and
containers as half-space lists.  Loaders normalize what they can and raise
BodyFormatError with a readable message on anything malformed, so command
line callers can turn any parse problem into a usage error.
"""

import json

import numpy as np

from .geometry import HPolytope, VPolytope
from .lab import CapBody

ZERO_NORMAL_TOL = 1e-14


class BodyFormatError(ValueError):
    """A JSON document does not describe a body or container."""


def _dim(obj):
    """The document's 'dim', None if it has none; only a JSON integer is one."""
    dim = obj.get("dim")
    if "dim" in obj and type(dim) is not int:
        raise BodyFormatError("'dim' must be an integer")
    return dim


def load_body(obj) -> VPolytope:
    """Body from a parsed JSON object: vertex list or arc-body recipe."""
    if not isinstance(obj, dict):
        raise BodyFormatError("body document must be a JSON object")
    dim = _dim(obj)
    if "arc_body" in obj:
        if dim != 2:
            raise BodyFormatError("arc bodies live in the plane (dim 2)")
        data = obj["arc_body"]
        if not isinstance(data, dict) or not {"removed_center_angle",
                                              "removed_width"} <= set(data):
            raise BodyFormatError(
                "arc_body needs removed_center_angle and removed_width")
        try:
            return CapBody.from_json(obj)
        except (TypeError, ValueError, OverflowError) as exc:
            raise BodyFormatError(f"bad arc body: {exc}") from exc
    if "vertices" not in obj:
        raise BodyFormatError("body document needs 'vertices' or 'arc_body'")
    try:
        verts = np.asarray(obj["vertices"], dtype=float)
    except OverflowError:
        raise BodyFormatError("vertex coordinates must be finite") from None
    except (TypeError, ValueError):
        raise BodyFormatError("'vertices' must be a nonempty list of points") from None
    if verts.ndim != 2 or verts.shape[0] == 0:
        raise BodyFormatError("'vertices' must be a nonempty list of points")
    if dim is not None and dim != verts.shape[1]:
        raise BodyFormatError("'dim' disagrees with the vertex coordinates")
    if not np.all(np.isfinite(verts)):
        raise BodyFormatError("vertex coordinates must be finite")
    return VPolytope(verts)


def load_container(obj) -> HPolytope:
    """H-polytope from a parsed JSON object; normals are normalized here.

    One Python pass checks that every row has a normal and an offset; the
    values then become one array each.  A row's norm is sqrt(u . u), as
    `np.linalg.norm(u)` computes it, so the normalized rows match a
    row-by-row load bit for bit.  Errors name the first bad row.
    """
    if not isinstance(obj, dict) or "halfspaces" not in obj:
        raise BodyFormatError("container document needs 'halfspaces'")
    dim = _dim(obj)
    rows = obj["halfspaces"]
    if not isinstance(rows, list) or len(rows) == 0:
        raise BodyFormatError("'halfspaces' must be a nonempty list")
    normals, offsets = [], []
    for k, row in enumerate(rows):
        if not isinstance(row, dict) or "normal" not in row or "offset" not in row:
            raise BodyFormatError(f"halfspace {k} needs 'normal' and 'offset'")
        normals.append(row["normal"])
        offsets.append(row["offset"])
    try:
        A = np.array(normals, dtype=float)
        b = np.array(offsets, dtype=float)
    except (TypeError, ValueError, OverflowError):
        A = b = None
    if A is None or A.ndim != 2 or b.ndim != 1:
        raise BodyFormatError(_shape_error(normals, offsets))
    finite = np.isfinite(A).all(axis=1) & np.isfinite(b)
    norms = np.sqrt([u.dot(u) for u in A])
    bad = np.flatnonzero(~finite | (norms <= ZERO_NORMAL_TOL))
    if bad.size:
        k = int(bad[0])
        raise BodyFormatError(f"halfspace {k} has non-finite entries" if not finite[k]
                              else f"halfspace {k} has a zero normal")
    if dim is not None and dim != A.shape[1]:
        raise BodyFormatError("'dim' disagrees with the normal coordinates")
    return HPolytope(A / norms[:, None], b / norms)


def _shape_error(normals, offsets):
    """Why the rows did not make a (rows, d) array of normals and a vector
    of offsets: the first row that is not a list of numbers and a number,
    else normals of several lengths."""
    for k, (u, b) in enumerate(zip(normals, offsets)):
        try:
            u, b = np.asarray(u, dtype=float), np.asarray(b, dtype=float)
        except (TypeError, ValueError, OverflowError):
            return f"halfspace {k} has entries that are not numbers"
        if u.ndim != 1 or b.ndim != 0:
            return f"halfspace {k} has non-finite entries"
    return "halfspace normals disagree on dimension"


def read_json(path):
    """Parsed JSON from a file path, with the path named in any error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BodyFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BodyFormatError(f"{path} is not valid JSON: {exc}") from exc
