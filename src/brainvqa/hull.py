"""Exact convex-hull volumes of voxel sets, all components of a study in one call.

:func:`voxel_hull_volumes` is the solidity denominator: per component of a
ragged set, the hull of its voxel corners on the doubled lattice (``2c ± 1``
per axis).  A corner ``2c + s``, ``s`` in ``{-1, +1}^3``, can be a hull vertex
only if voxel ``c`` is the lowest (``s_k = -1``) or highest (``s_k = +1``) of
its component's axis-``k`` line for all three ``k``, and, once deduplicated,
only if no two others enclose it on an axis line.  Rows in C order (as the
label split gives them; other input takes one ``lexsort``) hold each
last-axis line as a run, and each other axis takes one two-key stable sort.
The volume is exact: int64 triple products of the facets with a hull vertex
as origin (each >= 0, in sum at most 6·(2·dim)^3 < 2^51 for int16 dims),
scaled once by ``sx·sy·sz / 48``.

:func:`quickhull` is Quickhull (Barber, Dobkin & Huhdanpaa 1996) on integer
points, all groups (components) in lockstep.  Relative to its group's minimum
a coordinate is below 2^16, so a normal (cross product of edge vectors) is
below 2^34 and a height below 2^52: exact integers in float64, and
visibility is an exact ``> 0``.  Face slots keep their planes, groups and a
twin table of half-edges, the face adjacency, updated in place and never
rebuilt.  Each round takes many apexes at once (the conflict-free batches of
Blelloch, Gu, Shun & Sun 2016): each group's highest outside point, tested
against every face of its group, and each other face's highest outside point
whose visible faces, searched through the adjacency, close within two rings
and neither overlap nor share an edge with those of an apex of higher
priority (greedy by height, two Luby passes).  Since no two apexes' visible
sets touch along an edge, inserting them at once is inserting them one after
another: each apex is joined to its horizon (visible faces' half-edges whose
twin is not visible) in the freed slots, all in one array update, and each
orphaned point is re-assigned to the new faces of its own apex.  A group
spanning fewer than three dimensions raises :class:`DegenerateHullError`.
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
# A simplex's faces as corner triples, outward when corner 3 is below the
# plane of corners 0, 1, 2, and the twin of each of its 12 half-edges.
_SIMPLEX = np.array([[0, 1, 2], [0, 3, 1], [1, 3, 2], [2, 3, 0]])
_HALF_EDGES = [(a, b) for t in _SIMPLEX.tolist() for a, b in zip(t, t[1:] + t[:1])]
_SIMPLEX_TWIN = np.array([_HALF_EDGES.index((b, a)) for a, b in _HALF_EDGES])


def voxel_hull_volumes(
    coords: np.ndarray, sizes: np.ndarray,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> list[float]:
    """Exact volume in mm^3 of the convex hull of each voxel set's corners.

    ``coords`` holds the sets' voxels one after another, ``sizes[i]`` rows
    each.  Each volume equals the float volume of the hull of every corner of
    that set up to the rounding of that sum: it is the exact lattice volume
    rounded once.
    """
    if not len(sizes):
        return []
    voxels = np.empty((len(coords), 4), dtype=np.int64)
    voxels[:, 0] = np.repeat(np.arange(len(sizes)), sizes)
    voxels[:, 1:] = coords
    corners = _corner_candidates(voxels)
    group, lattice = corners[:, 0], corners[:, 1:]
    faces = quickhull(lattice, group)
    face_group = group[faces[:, 0]]
    # A component's first corner is its lexicographic minimum, a hull vertex.
    origin = lattice[np.searchsorted(group, face_group)]
    a, b, c = (lattice[faces[:, k]] - origin for k in range(3))
    sixfold = np.zeros(len(sizes), dtype=np.int64)
    np.add.at(sixfold, face_group, np.einsum("ij,ij->i", a, _cross(b, c)))
    sx, sy, sz = (float(s) for s in spacing)
    return (sixfold * (sx * sy * sz) / 48.0).tolist()


def _line_ends(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (component, x, y, z) in lexicographic order without repeats, and
    (3, n) masks of the lowest and highest row of each line along each axis
    (a line: the rows equal in the component and the other two axes).

    Rows already strictly in that order, as the labeling of a label split
    gives them, are kept as given; others take one two-key sort.
    """
    comp, x, y, z = rows.T.copy()
    x, y, z = x - x.min(), y - y.min(), z - z.min()
    ny, nz = y.max() + 1, z.max() + 1
    linear = (x * ny + y) * nz + z
    step = np.diff(comp)
    if not ((step > 0) | ((step == 0) & (np.diff(linear) > 0))).all():
        order = np.lexsort((linear, comp))
        order = order[(np.diff(comp[order], prepend=-1) != 0)
                      | (np.diff(linear[order], prepend=-1) != 0)]
        rows, comp, x, y, z = rows[order], comp[order], x[order], y[order], z[order]
    lowest, highest = np.empty((2, 3, len(rows)), dtype=bool)
    for axis, line in enumerate((y * nz + z, x * nz + z, x * ny + y)):
        # A last-axis line is a run of the sorted rows already; a stable sort
        # by (component, line) keeps each other line's rows in sorted order.
        order = np.lexsort((line, comp)) if axis < 2 else slice(None)
        comp_in, line_in = comp[order], line[order]
        new_line = np.ones(len(rows) + 1, dtype=bool)
        new_line[1:-1] = (comp_in[1:] != comp_in[:-1]) | (line_in[1:] != line_in[:-1])
        lowest[axis, order], highest[axis, order] = new_line[:-1], new_line[1:]
    return rows, lowest, highest


def _corner_candidates(voxels: np.ndarray) -> np.ndarray:
    """Sorted doubled-lattice corners that can be hull vertices of their
    component; ``voxels`` and the result are distinct rows (component, x, y, z)."""
    voxels, lo, hi = _line_ends(voxels)
    ends = np.flatnonzero((lo | hi).all(axis=0))  # voxels that end a line on every axis
    # keep[v, s]: corner s of voxel ends[v] is extreme on all three of its axis lines.
    x, y, z = np.stack([lo[:, ends], hi[:, ends]], axis=-1)  # per axis: sign -1, +1
    keep = x[:, :, None, None] & y[:, None, :, None] & z[:, None, None, :]
    voxel, corner = np.nonzero(keep.reshape(-1, 8))
    corners = voxels[ends[voxel]] * (1, 2, 2, 2)
    corners[:, 1:] += _CORNER_SIGNS[corner]
    corners, lowest, highest = _line_ends(corners)
    return corners[(lowest | highest).all(axis=0)]


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
    corners = np.stack([first, np.where(above, i2, i1), np.where(above, i1, i2), i3], axis=1)

    # Face slots: vertex triples, planes (n, -n·a), groups, and the twin of
    # each half-edge (slot·3 + k runs from corner k to corner k + 1).  A
    # visible disc of V faces has at most V + 2 horizon edges, and a point is
    # apex once.
    n_groups = len(first)
    top = 4 * n_groups
    tri = np.empty((2 * n + top, 3), dtype=np.int64)
    tri[:top] = corners[:, _SIMPLEX].reshape(-1, 3)
    plane = np.empty((len(tri), 4))
    plane[:top] = _planes(hom, *tri[:top].T)
    face_group = np.empty(len(tri), dtype=np.int64)
    face_group[:top] = np.repeat(np.arange(n_groups), 4)
    twin = np.empty(3 * len(tri), dtype=np.int64)
    twin[:3 * top] = (12 * np.arange(n_groups)[:, None] + _SIMPLEX_TWIN).ravel()
    faces = tri, plane, face_group, twin
    # Outside points, sorted by group: owner face slot and height above it.
    owner, height = _assign(hom, np.arange(n), gid, plane[:top], face_group[:top])
    live = np.flatnonzero(height > 0)
    owner, height = owner[live], height[live]

    apex_of = np.zeros(n_groups, dtype=np.int64)
    while len(live):
        live_group = gid.take(live)
        starts = np.flatnonzero(np.concatenate(([True], live_group[1:] != live_group[:-1])))
        best = _group_argmax(height, starts, len(live))
        apex_of[live_group.take(starts)] = live.take(best)
        # Each group's apex sees the faces of its group that it is above (a
        # finished group's last apex is on its hull and sees none).
        seen = np.flatnonzero(np.einsum(
            "ij,ij->i", plane[:top], hom.take(apex_of.take(face_group[:top]), axis=0)) > 0)
        key, slot, apex = _apexes(hom, faces, top, live, owner, height, seen, apex_of)
        top, live, owner, height = _insert_cones(
            hom, faces, top, key, slot, apex, live, owner, height)
    return order[tri[:top][tri[:top, 0] >= 0]]


def _apexes(
    hom: np.ndarray, faces: tuple, top: int, live: np.ndarray, owner: np.ndarray,
    height: np.ndarray, seen: np.ndarray, apex_of: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The apexes of one round and the faces each sees: ``(key, slot)`` pairs
    sorted by key, and the apex point of each key.

    Each group's apex ``apex_of[g]`` (key ``g``, seeing ``seen``) is taken.
    So is each other face's highest outside point whose visible faces,
    searched from its face through the adjacency, close within two rings,
    and are disjoint from and share no edge with those of any apex of
    higher priority: the group apexes, then the higher points (two Luby
    passes).
    """
    _, plane, face_group, twin = faces
    taken = np.zeros(top, dtype=bool)
    taken[seen] = True
    highest = np.full(top, -np.inf)
    np.maximum.at(highest, owner, height)
    hit = np.flatnonzero(height == highest.take(owner))
    first = np.full(top, len(live))
    np.minimum.at(first, owner.take(hit), hit)  # a face's first highest point
    face = np.flatnonzero((first < len(live)) & ~taken)
    point = first.take(face)
    key, slot = _caps(hom.take(live.take(point), axis=0), plane, twin, face, top)

    near = np.column_stack([slot, twin.reshape(-1, 3).take(slot, axis=0) // 3])
    rank = np.empty(len(face), dtype=np.int64)
    rank[np.argsort(height.take(point), kind="stable")] = np.arange(len(face))
    # Out of the race: a point whose cap did not close, or that sees a face
    # that a taken apex sees or a neighbour of one.
    out = np.ones(len(face), dtype=bool)
    out[key] = False
    won = np.zeros(len(face), dtype=bool)
    for _ in range(2):
        out[key[taken.take(near).any(axis=1)]] = True
        racing = ~out.take(key)
        best = np.full(top, -1)
        np.maximum.at(best, slot[racing], rank.take(key[racing]))
        beaten = (best.take(near[racing]) > rank.take(key[racing])[:, None]).any(axis=1)
        lost = out.copy()
        lost[key[racing][beaten]] = True
        won |= ~lost
        taken[slot[won.take(key)]] = True
    mine = won.take(key)
    key = np.concatenate([face_group.take(seen), len(apex_of) + key[mine]])
    slot = np.concatenate([seen, slot[mine]])
    by_key = np.argsort(key, kind="stable")
    return key.take(by_key), slot.take(by_key), np.concatenate([apex_of, live.take(point)])


def _caps(
    rows: np.ndarray, plane: np.ndarray, twin: np.ndarray, face: np.ndarray, top: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(key, slot)`` pairs, sorted, of the faces that point ``rows[key]``
    sees, for each point whose visible faces, searched ring by ring from
    ``face[key]`` through the adjacency, close within two rings."""
    adjacent = twin.reshape(-1, 3)
    first = adjacent.take(face, axis=0) // 3  # three distinct faces around each
    sees = _sees(plane, first.ravel(), rows.repeat(3, axis=0)).reshape(-1, 3)
    inner = np.where(sees, first, -1)
    key, col = np.nonzero(sees)
    found = [np.arange(len(face)) * top + face, key * top + first[key, col]]
    ring = first[key, col]
    for depth in (2, 3):  # the faces it sees around the last ring, and not in an inner one
        key, ring = key.repeat(3), adjacent.take(ring, axis=0).ravel() // 3
        fresh = (ring != face.take(key)) & (inner.take(key, axis=0) != ring[:, None]).all(axis=1)
        fresh &= _sees(plane, ring, rows.take(key, axis=0))
        code = key[fresh] * top + ring[fresh]
        if depth == 3:
            second = found[2]
            code = code[second.take(second.searchsorted(code), mode="clip") != code]
            break
        code.sort()
        code = np.concatenate([code[:1], code[1:][code[1:] != code[:-1]]])
        found.append(code)
        key, ring = np.divmod(code, top)
    found = np.concatenate(found)
    closed = np.ones(len(face), dtype=bool)
    closed[code // top] = False
    found = np.sort(found[closed.take(found // top)])
    return np.divmod(found, top)


def _sees(plane: np.ndarray, slot: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each of ``rows`` lies above the face in its ``slot``."""
    return np.einsum("ij,ij->i", plane.take(slot, axis=0), rows) > 0


def _insert_cones(
    hom: np.ndarray, faces: tuple, top: int, key: np.ndarray, slot: np.ndarray,
    apex: np.ndarray, live: np.ndarray, owner: np.ndarray, height: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Replace each apex's visible faces (``slot``, grouped by ``key``) by its
    cone in one array update, and re-assign their orphaned points to the new
    faces of their own apex: the new ``top`` and the outside points left."""
    tri, plane, face_group, twin = faces
    slot_key = np.full(top, -1)
    slot_key[slot] = key
    # Horizon: a visible face's half-edges whose twin face is not visible;
    # a half-edge ends where its twin starts.
    half = (3 * slot[:, None] + np.arange(3)).ravel()
    outer = twin.take(half)
    horizon = slot_key.take(outer // 3) < 0
    half, outer, key = half[horizon], outer[horizon], key.repeat(3)[horizon]
    start, end = tri.reshape(-1).take(half), tri.reshape(-1).take(outer)
    apex = apex.take(key)
    new_plane = _planes(hom, start, end, apex)

    m, freed = len(half), slot
    if m > len(freed):
        extra = np.arange(top, top + m - len(freed))
        freed, top = np.concatenate([freed, extra]), top + len(extra)
    plane[freed[m:]], tri[freed[m:], 0] = _FREED, -1
    new = freed[:m]
    tri[new, 0], tri[new, 1], tri[new, 2] = start, end, apex
    plane[new], face_group[new] = new_plane, face_group.take(half // 3)
    # Edge 0 faces the outer face; edge 1 (end, apex) the cone face of the
    # same apex starting at ``end``, whose edge 2 (apex, end) faces back.
    twin[3 * new], twin[outer] = outer, 3 * new
    rim = key * len(hom) + start
    by_start = np.argsort(rim)
    after = new.take(by_start.take(rim.take(by_start).searchsorted(key * len(hom) + end)))
    twin[3 * new + 1], twin[3 * after + 2] = 3 * after + 2, 3 * new + 1

    orphan_key = slot_key.take(owner)
    orphan = np.flatnonzero(orphan_key >= 0)
    best, height[orphan] = _assign(hom, live.take(orphan), orphan_key.take(orphan), new_plane, key)
    owner[orphan] = new.take(best)
    outside = height > 0  # an apex is on its new faces: height 0
    return top, live[outside], owner[outside], height[outside]


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
    return u[:, _NEXT[:k]] * v[:, _PREV[:k]] - u[:, _PREV[:k]] * v[:, _NEXT[:k]]
