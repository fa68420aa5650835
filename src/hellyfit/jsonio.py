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


def load_body(obj) -> VPolytope:
    """Body from a parsed JSON object: vertex list or arc-body recipe."""
    if not isinstance(obj, dict):
        raise BodyFormatError("body document must be a JSON object")
    if "arc_body" in obj:
        if obj.get("dim") != 2:
            raise BodyFormatError("arc bodies live in the plane (dim 2)")
        data = obj["arc_body"]
        if not isinstance(data, dict) or not {"removed_center_angle",
                                              "removed_width"} <= set(data):
            raise BodyFormatError(
                "arc_body needs removed_center_angle and removed_width")
        try:
            return CapBody.from_json(obj)
        except (TypeError, ValueError) as exc:
            raise BodyFormatError(f"bad arc body: {exc}") from exc
    if "vertices" not in obj:
        raise BodyFormatError("body document needs 'vertices' or 'arc_body'")
    verts = np.asarray(obj["vertices"], dtype=float)
    if verts.ndim != 2 or verts.shape[0] == 0:
        raise BodyFormatError("'vertices' must be a nonempty list of points")
    if "dim" in obj and int(obj["dim"]) != verts.shape[1]:
        raise BodyFormatError("'dim' disagrees with the vertex coordinates")
    if not np.all(np.isfinite(verts)):
        raise BodyFormatError("vertex coordinates must be finite")
    return VPolytope(verts)


def load_container(obj) -> HPolytope:
    """H-polytope from a parsed JSON object; normals are normalized here."""
    if not isinstance(obj, dict) or "halfspaces" not in obj:
        raise BodyFormatError("container document needs 'halfspaces'")
    rows = obj["halfspaces"]
    if not isinstance(rows, list) or len(rows) == 0:
        raise BodyFormatError("'halfspaces' must be a nonempty list")
    normals, offsets = [], []
    for k, row in enumerate(rows):
        if not isinstance(row, dict) or "normal" not in row or "offset" not in row:
            raise BodyFormatError(f"halfspace {k} needs 'normal' and 'offset'")
        u = np.asarray(row["normal"], dtype=float)
        b = float(row["offset"])
        if u.ndim != 1 or not np.all(np.isfinite(u)) or not np.isfinite(b):
            raise BodyFormatError(f"halfspace {k} has non-finite entries")
        if normals and u.size != normals[0].size:
            raise BodyFormatError("halfspace normals disagree on dimension")
        norm = float(np.linalg.norm(u))
        if norm <= ZERO_NORMAL_TOL:
            raise BodyFormatError(f"halfspace {k} has a zero normal")
        normals.append(u / norm)
        offsets.append(b / norm)
    A = np.asarray(normals)
    if "dim" in obj and int(obj["dim"]) != A.shape[1]:
        raise BodyFormatError("'dim' disagrees with the normal coordinates")
    return HPolytope(A, np.asarray(offsets))


def read_json(path):
    """Parsed JSON from a file path, with the path named in any error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BodyFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BodyFormatError(f"{path} is not valid JSON: {exc}") from exc
