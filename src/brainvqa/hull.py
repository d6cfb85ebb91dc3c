"""3D convex hulls: array quickhull, and the exact hull volume of a voxel set.

:func:`quickhull` is Quickhull (Barber, Dobkin & Huhdanpaa 1996) as array
code.  The faces live in arrays of vertex indices, unit normals and offsets;
the points still outside the hull are assigned to faces with one points ×
normals product and an ``argmax``.  Each step takes the farthest outside
point as the apex, finds every face it sees with one product against all
live normals, takes as horizon the visible faces' directed edges whose
reverse is not among them, and re-assigns only the orphaned points, against
the new faces only.  Inputs that span fewer than three dimensions raise
:class:`DegenerateHullError`.

:func:`voxel_hull_volume` is the solidity denominator: the hull of a voxel
set's corners, with the corners on the doubled lattice (``2c ± 1`` per axis,
int64).  A corner ``2c + s``, ``s`` in ``{-1, +1}^3``, can be a hull vertex
only if voxel ``c`` is the lowest (``s_k = -1``) or highest (``s_k = +1``)
voxel of its axis-``k`` line for all three ``k``: otherwise the same corner
of the neighbouring line voxel lies beyond it on that axis line.  After
deduplication, a corner strictly between two others on an axis-parallel line
is dropped as well.  The volume is exact: the int64 triple products of the
hull facets with a hull vertex as origin (each is >= 0, and their sum is at
most 6·(2·dim)^3 < 2^63 for any int16 NIfTI dims), summed and then scaled
once by ``sx·sy·sz / 48``, so it depends on neither facet order nor the hull
algorithm.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateHullError

# Corner offsets s in {-1, +1}^3 of a voxel on the doubled lattice.
_CORNER_SIGNS = np.array(list(np.ndindex(2, 2, 2)), dtype=np.int64) * 2 - 1
# Cyclic successor and predecessor of each coordinate axis or triangle corner.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def voxel_hull_volume(
    coords: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> float:
    """Exact volume of the convex hull of a voxel set's corners, in mm^3.

    Equals the float volume of the hull of every voxel corner up to the
    rounding of that sum; this value is the exact lattice volume rounded once.
    """
    corners = _corner_candidates(coords)
    # Shifted to the origin, a lattice point off a facet plane is at least
    # 1/|integer normal| from it, which stays above quickhull's eps for
    # components up to about 300 voxels across: its float tests decide exactly.
    faces, pts, _ = quickhull(corners - corners.min(axis=0))
    lattice = pts.astype(np.int64)  # integers well below 2^53
    origin = lattice[faces[0, 0]]
    a, b, c = (lattice[faces[:, k]] - origin for k in range(3))
    sixfold = int(np.sum(np.einsum("ij,ij->i", a, _cross(b, c))))
    sx, sy, sz = (float(s) for s in spacing)
    return sixfold * (sx * sy * sz) / 48.0


def _line_extremes(points: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the lowest and highest point of each axis-parallel line."""
    others = [k for k in range(3) if k != axis]
    order = np.lexsort((points[:, axis], points[:, others[1]], points[:, others[0]]))
    line = points[order][:, others]
    new_line = np.ones(len(order) + 1, dtype=bool)
    new_line[1:-1] = (line[1:] != line[:-1]).any(axis=1)
    lowest = np.empty(len(order), dtype=bool)
    highest = np.empty(len(order), dtype=bool)
    lowest[order] = new_line[:-1]
    highest[order] = new_line[1:]
    return lowest, highest


def _corner_candidates(coords: np.ndarray) -> np.ndarray:
    """Doubled-lattice corners (int64) that can be hull vertices of the voxel set."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    lo, hi = zip(*(_line_extremes(coords, k) for k in range(3)))
    # keep[v, s]: corner s of voxel v is extreme on all three of its axis lines.
    keep = np.ones((len(coords), 8), dtype=bool)
    for k in range(3):
        keep &= np.where(_CORNER_SIGNS[:, k] < 0, lo[k][:, None], hi[k][:, None])
    voxel, corner = np.nonzero(keep)
    corners = np.unique(2 * coords[voxel] + _CORNER_SIGNS[corner], axis=0)
    extreme = np.ones(len(corners), dtype=bool)
    for k in range(3):
        lowest, highest = _line_extremes(corners, k)
        extreme &= lowest | highest
    return corners[extreme]


def quickhull(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute hull facets (outward-oriented vertex triples).

    Returns ``(faces, points, interior_point)`` where ``faces`` is (F, 3)
    indices into ``points``, the distinct input points in sorted order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pts = np.unique(pts, axis=0)
    if pts.shape[0] < 4:
        raise DegenerateHullError(f"need at least 4 distinct points, got {pts.shape[0]}")
    scale = float(np.abs(pts).max())
    eps = 1e-9 * max(scale, 1.0)

    simplex = _initial_simplex(pts, eps)
    interior = pts[simplex].mean(axis=0)
    i0, i1, i2, i3 = simplex
    tri = np.array([(i0, i1, i2), (i0, i3, i1), (i1, i3, i2), (i2, i3, i0)], dtype=np.int64)
    normal, offset = _planes(pts, tri)
    inward = normal @ interior - offset > 0
    tri[inward] = tri[inward][:, [0, 2, 1]]
    normal[inward] *= -1.0
    offset[inward] *= -1.0
    alive = np.ones(4, dtype=bool)

    # Points outside the hull: index, owning face and distance to its plane.
    rest = np.ones(pts.shape[0], dtype=bool)
    rest[simplex] = False
    live, owner, dist = _assign(pts, np.flatnonzero(rest), normal, offset, 0, eps)

    while live.size:
        k = int(np.argmax(dist))
        apex = live[k]
        visible = alive & (normal @ pts[apex] - offset > eps)
        # New faces join the apex to the horizon: the visible faces' directed
        # edges whose reverse is not an edge of another visible face.
        seen = tri[visible]
        start, end = seen.ravel(), seen[:, _NEXT].ravel()
        edge = start * len(pts) + end
        reverse = np.sort(end * len(pts) + start)
        at = np.minimum(np.searchsorted(reverse, edge), len(reverse) - 1)
        horizon = reverse[at] != edge
        new = np.column_stack(
            [start[horizon], end[horizon], np.full(int(horizon.sum()), apex)]
        )
        new_normal, new_offset = _planes(pts, new)
        first = tri.shape[0]
        alive[visible] = False
        tri = np.concatenate([tri, new])
        normal = np.concatenate([normal, new_normal])
        offset = np.concatenate([offset, new_offset])
        alive = np.concatenate([alive, np.ones(len(new), dtype=bool)])

        orphaned = visible[owner]
        orphans = live[orphaned]
        orphans = orphans[orphans != apex]
        o_live, o_owner, o_dist = _assign(pts, orphans, new_normal, new_offset, first, eps)
        kept = ~orphaned
        live = np.concatenate([live[kept], o_live])
        owner = np.concatenate([owner[kept], o_owner])
        dist = np.concatenate([dist[kept], o_dist])

    return tri[alive], pts, interior


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (n, 3) arrays (``np.cross`` without its overhead)."""
    return u[:, _NEXT] * v[:, _PREV] - u[:, _PREV] * v[:, _NEXT]


def _planes(pts: np.ndarray, tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals (right-hand rule on the vertex order) and plane offsets."""
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    n = _cross(b - a, c - a)
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    n = np.divide(n, norm, out=np.zeros_like(n), where=norm > 0)
    return n, np.einsum("ij,ij->i", n, a)


def _assign(pts, candidates, normal, offset, first, eps):
    """Outside ``candidates`` with the face (``first`` + row) each is farthest above."""
    heights = pts[candidates] @ normal.T - offset
    best = np.argmax(heights, axis=1)
    dist = heights[np.arange(len(candidates)), best]
    outside = dist > eps
    return candidates[outside], best[outside] + first, dist[outside]


def _initial_simplex(pts: np.ndarray, eps: float) -> list[int]:
    # The farthest pair among the axis-extreme points.
    extremes = np.concatenate([pts.argmin(axis=0), pts.argmax(axis=0)])
    gaps = np.linalg.norm(pts[extremes][:, None] - pts[extremes][None], axis=2)
    i, j = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    if gaps[i, j] <= eps:
        raise DegenerateHullError("all points coincide")
    lo, hi = int(extremes[i]), int(extremes[j])
    line = pts[hi] - pts[lo]
    rel = pts - pts[lo]
    d_line = np.linalg.norm(np.cross(rel, line), axis=1)
    third = int(np.argmax(d_line))
    if d_line[third] <= eps * max(np.linalg.norm(line), 1.0):
        raise DegenerateHullError("points are collinear")
    normal = np.cross(pts[third] - pts[lo], line)
    normal /= np.linalg.norm(normal)
    d_plane = np.abs(rel @ normal)
    fourth = int(np.argmax(d_plane))
    if d_plane[fourth] <= eps:
        raise DegenerateHullError("points are coplanar")
    return [lo, hi, third, fourth]

