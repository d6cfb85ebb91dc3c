"""Exact convex-hull volumes of voxel sets, all components of a study in one call.

:func:`voxel_hull_volumes` is the solidity denominator: per component, the
hull of its voxel corners on the doubled lattice (``2c ± 1`` per axis).  A
corner ``2c + s``, ``s`` in ``{-1, +1}^3``, can be a hull vertex only if voxel
``c`` is the lowest (``s_k = -1``) or highest (``s_k = +1``) of its
component's axis-``k`` line for all three ``k``, and, once deduplicated, only
if no two others enclose it on an axis line.  The volume is exact: int64
triple products of the facets with a hull vertex as origin (each >= 0, in sum
at most 6·(2·dim)^3 < 2^51 for int16 dims), scaled once by ``sx·sy·sz / 48``.

:func:`quickhull` is Quickhull (Barber, Dobkin & Huhdanpaa 1996) on integer
points, all groups (components) in lockstep.  Relative to its group's minimum
a coordinate is below 2^16, so a normal (cross product of edge vectors) is
below 2^34 and a height below 2^52: exact integers in float64, and
visibility is an exact ``> 0``.  Each round takes one apex per group with
outside points, the point highest above its face; finds the faces it sees;
joins it to the horizon (visible faces' directed edges whose reverse is not
visible) in the visible faces' slots; and re-assigns the orphaned points to
the new faces of their own group.  A finished group's faces leave the
working arrays.  A group spanning fewer than three dimensions raises
:class:`DegenerateHullError`.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateHullError

# Corner offsets s in {-1, +1}^3 of a voxel on the doubled lattice.
_CORNER_SIGNS = np.array(list(np.ndindex(2, 2, 2)), dtype=np.int64) * 2 - 1
# Cyclic successor and predecessor of each axis or triangle corner; the
# homogeneous coordinate (column 3) maps to itself.
_NEXT = np.array([1, 2, 0, 3])
_PREV = np.array([2, 0, 1, 3])
# Plane of a freed face slot: every point is 1 below it.
_FREED = np.array([0.0, 0.0, 0.0, -1.0])


def voxel_hull_volumes(
    components: list[np.ndarray], spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> list[float]:
    """Exact volume in mm^3 of the convex hull of each voxel set's corners.

    Each equals the float volume of the hull of every corner of that set up
    to the rounding of that sum: it is the exact lattice volume rounded once.
    """
    if not components:
        return []
    sizes = list(map(len, components))
    voxels = np.empty((sum(sizes), 4), dtype=np.int64)
    voxels[:, 0] = np.repeat(np.arange(len(components)), sizes)
    voxels[:, 1:] = np.concatenate(components)
    corners = _corner_candidates(voxels)
    group, lattice = corners[:, 0], corners[:, 1:]
    faces = quickhull(lattice, group)
    face_group = group[faces[:, 0]]
    # A component's first corner is its lexicographic minimum, a hull vertex.
    origin = lattice[np.searchsorted(group, face_group)]
    a, b, c = (lattice[faces[:, k]] - origin for k in range(3))
    sixfold = np.zeros(len(components), dtype=np.int64)
    np.add.at(sixfold, face_group, np.einsum("ij,ij->i", a, _cross(b, c)))
    sx, sy, sz = (float(s) for s in spacing)
    return (sixfold * (sx * sy * sz) / 48.0).tolist()


def _line_extremes(rows: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the lowest and highest row of each line along column ``axis``
    (a line: the rows equal in every other column, the component among them)."""
    others = [k for k in range(rows.shape[1]) if k != axis]
    order = np.lexsort(rows[:, [axis] + others[::-1]].T)  # by others, then axis
    line = rows[order][:, others]
    new_line = np.ones(len(order) + 1, dtype=bool)
    new_line[1:-1] = (line[1:] != line[:-1]).any(axis=1)
    lowest, highest = np.empty((2, len(order)), dtype=bool)
    lowest[order], highest[order] = new_line[:-1], new_line[1:]
    return lowest, highest


def _corner_candidates(voxels: np.ndarray) -> np.ndarray:
    """Sorted doubled-lattice corners that can be hull vertices of their
    component; ``voxels`` and the result are distinct rows (component, x, y, z)."""
    lo, hi = map(np.array, zip(*(_line_extremes(voxels, k) for k in (1, 2, 3))))
    ends = np.flatnonzero((lo | hi).all(axis=0))  # voxels that end a line on every axis
    # keep[v, s]: corner s of voxel ends[v] is extreme on all three of its axis lines.
    x, y, z = np.stack([lo[:, ends], hi[:, ends]], axis=-1)  # per axis: sign -1, +1
    keep = x[:, :, None, None] & y[:, None, :, None] & z[:, None, None, :]
    voxel, corner = np.nonzero(keep.reshape(-1, 8))
    corners = voxels[ends[voxel]] * (1, 2, 2, 2)
    corners[:, 1:] += _CORNER_SIGNS[corner]
    corners = corners[np.lexsort(corners.T[::-1])]
    distinct = np.ones(len(corners), dtype=bool)
    distinct[1:] = (corners[1:] != corners[:-1]).any(axis=1)
    corners = corners[distinct]
    extreme = np.ones(len(corners), dtype=bool)
    for k in (1, 2, 3):
        lowest, highest = _line_extremes(corners, k)
        extreme &= lowest | highest
    return corners[extreme]


def quickhull(points: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Outward-oriented hull facets, (F, 3) indices into ``points``, of every
    group of (n, 3) integer points; ``group[i]`` names the hull of point i."""
    _, gid = np.unique(group, return_inverse=True)
    order = np.argsort(gid, kind="stable")
    pts, gid = np.asarray(points, dtype=np.int64)[order], gid[order]
    n = len(pts)
    first = np.flatnonzero(np.concatenate(([True], gid[1:] != gid[:-1])))
    pts = pts - np.minimum.reduceat(pts, first)[gid]
    if pts.max() >= 2**16:
        raise ValueError("a group spans 2^16 or more lattice units")
    hom = np.ones((n, 4))  # homogeneous coordinates
    hom[:, :3] = pts

    # Simplex per group: its first point, the point farthest from it, the one
    # farthest from their line, and the one farthest from that plane.
    rel = pts - pts[first][gid]
    i1 = _group_argmax(np.einsum("ij,ij->i", rel, rel), first, n)
    off_line = _cross(rel, (pts[i1] - pts[first])[gid]).astype(np.float64)
    i2 = _group_argmax(np.einsum("ij,ij->i", off_line, off_line), first, n)
    lift = np.einsum("ij,ij->i", rel, _cross(pts[i1] - pts[first], pts[i2] - pts[first])[gid])
    i3 = _group_argmax(np.abs(lift), first, n)
    if (lift[i3] == 0).any():
        raise DegenerateHullError("a group of points spans fewer than three dimensions")
    above = lift[i3] > 0  # i3 above (first, i1, i2): swap i1 and i2 to face outward
    i0, i1, i2 = first, np.where(above, i2, i1), np.where(above, i1, i2)

    # Face slots: vertex triples, planes (n, -n·a) and groups.  A visible disc
    # of V faces has at most V + 2 horizon edges, and a point is apex once.
    top = 4 * len(first)
    tri = np.empty((2 * n + top, 3), dtype=np.int64)
    tri[:top] = np.stack([i0, i1, i2, i0, i3, i1, i1, i3, i2, i2, i3, i0], axis=1).reshape(-1, 3)
    plane = np.empty((len(tri), 4))
    plane[:top] = _planes(hom, *tri[:top].T)
    face_group = np.empty(len(tri), dtype=np.int64)
    face_group[:top] = np.repeat(np.arange(len(first)), 4)
    # Outside points, sorted by group: owner face slot and height above it.
    owner, height = _assign(hom, np.arange(n), gid, plane[:top], face_group[:top])
    live = np.flatnonzero(height > 0)
    owner, height = owner[live], height[live]

    done, n_active = [], len(first)
    apex_of = np.zeros(len(first), dtype=np.int64)
    while len(live):
        live_group = gid.take(live)
        starts = np.flatnonzero(np.concatenate(([True], live_group[1:] != live_group[:-1])))
        if len(starts) < n_active:  # retire the finished groups' faces
            n_active = len(starts)
            active = np.zeros(len(first), dtype=bool)
            active[live_group[starts]] = True
            used = tri[:top, 0] >= 0
            keep = active[face_group[:top]] & used
            done.append(tri[:top][used & ~keep])
            owner = (np.cumsum(keep) - 1)[owner]
            kept = tri[:top][keep], plane[:top][keep], face_group[:top][keep]
            top = len(kept[0])
            tri[:top], plane[:top], face_group[:top] = kept
        apex_of[live_group.take(starts)] = live.take(_group_argmax(height, starts, len(live)))

        apex_rows = hom.take(apex_of.take(face_group[:top]), axis=0)
        visible = np.einsum("ij,ij->i", plane[:top], apex_rows) > 0
        freed = np.flatnonzero(visible)
        seen = tri.take(freed, axis=0)
        start, end = seen.ravel(), seen.take(_NEXT[:3], axis=1).ravel()
        edge = start * n + end
        reverse = np.sort(end * n + start)
        horizon = reverse.take(reverse.searchsorted(edge), mode="clip") != edge
        start, end = start[horizon], end[horizon]
        by_group = np.argsort(gid.take(start), kind="stable")
        start, end = start.take(by_group), end.take(by_group)
        new_group = gid.take(start)
        apex = apex_of.take(new_group)
        new_plane = _planes(hom, start, end, apex)

        m = len(start)
        if m > len(freed):
            extra = np.arange(top, top + m - len(freed))
            freed, top = np.concatenate([freed, extra]), top + len(extra)
        plane[freed[m:]], tri[freed[m:], 0] = _FREED, -1
        slots = freed[:m]
        tri[slots, 0], tri[slots, 1], tri[slots, 2] = start, end, apex
        plane[slots], face_group[slots] = new_plane, new_group

        orphan = np.flatnonzero(visible.take(owner))
        best, height[orphan] = _assign(hom, live.take(orphan), live_group.take(orphan),
                                       new_plane, new_group)
        owner[orphan] = slots.take(best)
        outside = height > 0  # an apex is on its new faces: height 0
        live, owner, height = live[outside], owner[outside], height[outside]

    done.append(tri[:top][tri[:top, 0] >= 0])
    return order[np.concatenate(done)]


def _assign(
    hom: np.ndarray, points: np.ndarray, point_group: np.ndarray,
    plane: np.ndarray, plane_group: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the row of ``plane`` (sorted by group) of its own group that
    it is highest above, and that height; rows are padded to the widest group."""
    lo = plane_group.searchsorted(point_group)
    count = plane_group.searchsorted(point_group, "right") - lo
    width = np.arange(count.max())
    rows = np.minimum(lo[:, None] + width, len(plane) - 1)
    heights = np.einsum("okd,od->ok", plane.take(rows, axis=0), hom.take(points, axis=0))
    heights[width >= count[:, None]] = -np.inf
    return lo + heights.argmax(axis=1), heights.max(axis=1)


def _group_argmax(values: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """Index of a largest value in each run ``values[starts[i]:starts[i + 1]]``."""
    counts = np.empty_like(starts)
    counts[:-1], counts[-1] = starts[1:] - starts[:-1], n - starts[-1]
    hits = np.flatnonzero(values == np.maximum.reduceat(values, starts).repeat(counts))
    return hits.take(hits.searchsorted(starts))


def _planes(hom: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rows ``(n, -n·a)`` with ``n = (b - a) × (c - a)``, from homogeneous points."""
    origin = hom.take(a, axis=0)
    plane = _cross(hom.take(b, axis=0) - origin, hom.take(c, axis=0) - origin)
    plane[:, 3] = -np.einsum("ij,ij->i", plane, origin)
    return plane


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (n, 3) rows, or of (n, 4) rows with column 3 0."""
    k = u.shape[1]
    return (u.take(_NEXT[:k], axis=1) * v.take(_PREV[:k], axis=1)
            - u.take(_PREV[:k], axis=1) * v.take(_NEXT[:k], axis=1))
