"""Voxel, mesh, hull and shape checks that only tests and acceptance criteria use.

The descriptor path needs none of these: it takes the area from case counts
(``surface._component_areas``) and the solidity from the exact lattice hull
volume (``hull.voxel_hull_volumes``).  What stays here checks those against
meshes and float hulls: edge closure, winding and area of a mesh, the
analytic mesh of one voxel, the edge triangles of one table case, the
classic edge table that the triangle table must agree with, and the float
hull volume of a point cloud or of a voxel set's corners.

``reference_shape_metrics`` is the one-component-at-a-time shape metrics
oracle: a bounding-box crop, its full case grid, and one ``eigvalsh`` per
component.  ``shape.component_shape_metrics`` must equal it field for field.
``ragged`` and ``split_components`` convert between a list of per-component
voxel arrays and the ragged ``(coords, sizes)`` pair the library takes, and
``describe`` runs ``shape.describe_shape`` on a labeling's measured components.

Two float quickhulls are the hull oracles.  ``float_quickhull`` is array
code with unit normals and an ``eps`` relative to the coordinate scale, one
hull per call.  ``reference_quickhull`` is dict-and-loop code: faces in a
dict, outside points assigned one at a time, visible faces found by a stack
walk over an edge map rebuilt for every apex.  Both take any float cloud and
raise ``DegenerateHullError`` on flat ones.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from brainvqa.errors import DegenerateHullError, GeometryError
from brainvqa.hull import _CORNER_SIGNS, _cross, voxel_hull_volumes
from brainvqa.mc_tables import TRI_TABLE
from brainvqa.morphology import ComponentLabeling
from brainvqa.nifti import VolumeHeader
from brainvqa.shape import ShapeMetrics, component_shape_metrics, describe_shape, shape_components
from brainvqa.surface import SurfaceMesh, _cell_cases, case_area, triangle_areas


def ragged(components: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One (n, 3) int64 array of the components' voxels, one after another,
    and their int64 sizes."""
    components = [np.asarray(c, dtype=np.int64).reshape(-1, 3) for c in components]
    sizes = np.array([len(c) for c in components], dtype=np.int64)
    return np.concatenate([np.zeros((0, 3), dtype=np.int64)] + components), sizes


def split_components(coords: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """The per-component voxel arrays of a ragged pair."""
    return np.split(coords, np.cumsum(sizes)[:-1]) if len(sizes) else []


def describe(
    labeling: ComponentLabeling, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> tuple[str, ShapeMetrics | None]:
    """``describe_shape`` of a labeling, with the metrics of its shape components."""
    measured = shape_components(labeling)
    per_component = component_shape_metrics(*measured, spacing) if len(measured[1]) else []
    return describe_shape(labeling, per_component)


def voxel_volume(header: VolumeHeader) -> float:
    """Physical volume of one voxel in mm^3 (product of the spacings)."""
    sx, sy, sz = header.pixdim
    return sx * sy * sz


def edge_incidence(mesh: SurfaceMesh) -> Counter:
    """Count how many triangles share each undirected edge."""
    counts: Counter = Counter()
    for a, b, c in mesh.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            counts[(min(u, v), max(u, v))] += 1
    return counts


def is_closed(mesh: SurfaceMesh) -> bool:
    """True when every undirected edge is shared by exactly two triangles."""
    counts = edge_incidence(mesh)
    return bool(counts) and all(n == 2 for n in counts.values())


def is_orientable(mesh: SurfaceMesh) -> bool:
    """True when every directed edge appears exactly once (consistent winding)."""
    seen = set()
    for a, b, c in mesh.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            if (u, v) in seen:
                return False
            seen.add((u, v))
    return True


def mesh_area(mesh: SurfaceMesh) -> float:
    """Total surface area in mm^2 (half cross-product magnitude per triangle)."""
    return float(triangle_areas(mesh).sum())


def single_voxel_mesh(
    center_index: tuple[int, int, int], spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> SurfaceMesh:
    """Analytic octahedral iso-surface of one voxel.

    Identical to the lookup-table output for an isolated voxel.
    """
    c = np.asarray(center_index, dtype=np.float64) * np.asarray(spacing, dtype=np.float64)
    h = 0.5 * np.asarray(spacing, dtype=np.float64)
    verts = np.array(
        [
            c + [h[0], 0, 0], c - [h[0], 0, 0],
            c + [0, h[1], 0], c - [0, h[1], 0],
            c + [0, 0, h[2]], c - [0, 0, h[2]],
        ]
    )
    xp, xm, yp, ym, zp, zm = range(6)
    tris = np.array(
        [
            (xp, yp, zp), (yp, xm, zp), (xm, ym, zp), (ym, xp, zp),
            (yp, xp, zm), (xm, yp, zm), (ym, xm, zm), (xp, ym, zm),
        ],
        dtype=np.int64,
    )
    return SurfaceMesh(verts, tris)


# The classic marching-cubes edge table: bit e of ``EDGE_TABLE[case]`` is set when
# the case's surface crosses cube edge e.  It is an independent reference for
# the edges that ``mc_tables.TRI_TABLE`` triangulates.
EDGE_TABLE = [
    0x000, 0x109, 0x203, 0x30a, 0x406, 0x50f, 0x605, 0x70c,
    0x80c, 0x905, 0xa0f, 0xb06, 0xc0a, 0xd03, 0xe09, 0xf00,
    0x190, 0x099, 0x393, 0x29a, 0x596, 0x49f, 0x795, 0x69c,
    0x99c, 0x895, 0xb9f, 0xa96, 0xd9a, 0xc93, 0xf99, 0xe90,
    0x230, 0x339, 0x033, 0x13a, 0x636, 0x73f, 0x435, 0x53c,
    0xa3c, 0xb35, 0x83f, 0x936, 0xe3a, 0xf33, 0xc39, 0xd30,
    0x3a0, 0x2a9, 0x1a3, 0x0aa, 0x7a6, 0x6af, 0x5a5, 0x4ac,
    0xbac, 0xaa5, 0x9af, 0x8a6, 0xfaa, 0xea3, 0xda9, 0xca0,
    0x460, 0x569, 0x663, 0x76a, 0x066, 0x16f, 0x265, 0x36c,
    0xc6c, 0xd65, 0xe6f, 0xf66, 0x86a, 0x963, 0xa69, 0xb60,
    0x5f0, 0x4f9, 0x7f3, 0x6fa, 0x1f6, 0x0ff, 0x3f5, 0x2fc,
    0xdfc, 0xcf5, 0xfff, 0xef6, 0x9fa, 0x8f3, 0xbf9, 0xaf0,
    0x650, 0x759, 0x453, 0x55a, 0x256, 0x35f, 0x055, 0x15c,
    0xe5c, 0xf55, 0xc5f, 0xd56, 0xa5a, 0xb53, 0x859, 0x950,
    0x7c0, 0x6c9, 0x5c3, 0x4ca, 0x3c6, 0x2cf, 0x1c5, 0x0cc,
    0xfcc, 0xec5, 0xdcf, 0xcc6, 0xbca, 0xac3, 0x9c9, 0x8c0,
    0x8c0, 0x9c9, 0xac3, 0xbca, 0xcc6, 0xdcf, 0xec5, 0xfcc,
    0x0cc, 0x1c5, 0x2cf, 0x3c6, 0x4ca, 0x5c3, 0x6c9, 0x7c0,
    0x950, 0x859, 0xb53, 0xa5a, 0xd56, 0xc5f, 0xf55, 0xe5c,
    0x15c, 0x055, 0x35f, 0x256, 0x55a, 0x453, 0x759, 0x650,
    0xaf0, 0xbf9, 0x8f3, 0x9fa, 0xef6, 0xfff, 0xcf5, 0xdfc,
    0x2fc, 0x3f5, 0x0ff, 0x1f6, 0x6fa, 0x7f3, 0x4f9, 0x5f0,
    0xb60, 0xa69, 0x963, 0x86a, 0xf66, 0xe6f, 0xd65, 0xc6c,
    0x36c, 0x265, 0x16f, 0x066, 0x76a, 0x663, 0x569, 0x460,
    0xca0, 0xda9, 0xea3, 0xfaa, 0x8a6, 0x9af, 0xaa5, 0xbac,
    0x4ac, 0x5a5, 0x6af, 0x7a6, 0x0aa, 0x1a3, 0x2a9, 0x3a0,
    0xd30, 0xc39, 0xf33, 0xe3a, 0x936, 0x83f, 0xb35, 0xa3c,
    0x53c, 0x435, 0x73f, 0x636, 0x13a, 0x033, 0x339, 0x230,
    0xe90, 0xf99, 0xc93, 0xd9a, 0xa96, 0xb9f, 0x895, 0x99c,
    0x69c, 0x795, 0x49f, 0x596, 0x29a, 0x393, 0x099, 0x190,
    0xf00, 0xe09, 0xd03, 0xc0a, 0xb06, 0xa0f, 0x905, 0x80c,
    0x70c, 0x605, 0x50f, 0x406, 0x30a, 0x203, 0x109, 0x000,
]


def cell_triangles(case: int) -> list[tuple[int, int, int]]:
    """Edge-index triples of one table case (for the table audit)."""
    row = TRI_TABLE[case]
    tris = []
    for i in range(0, 16, 3):
        if row[i] < 0:
            break
        tris.append((row[i], row[i + 1], row[i + 2]))
    return tris


# ---------------------------------------------------------------------------
# Shape metrics of one component at a time

_EIG_ZERO_TOL = 1e-12


def _covariance(coords: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Biased covariance of the world voxel centers, in mm^2."""
    world = coords * spacing
    centered = world - world.mean(axis=0)
    return centered.T @ centered / coords.shape[0]


def _descending_eigenvalues(cov: np.ndarray) -> tuple[float, float, float]:
    eig = np.clip(np.linalg.eigvalsh(cov), 0.0, None)[::-1]
    return (float(eig[0]), float(eig[1]), float(eig[2]))


def pca_axes(
    coords: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> tuple[float, float, float]:
    """Descending eigenvalues of the biased covariance of world voxel centers.

    No regularization is applied here; a single voxel yields (0, 0, 0).
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    if coords.shape[0] < 1:
        raise GeometryError("pca_axes needs at least one voxel")
    return _descending_eigenvalues(_covariance(coords, np.asarray(spacing, dtype=np.float64)))


def _regularized_axes(
    coords: np.ndarray, spacing: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Eigenvalues with the single-voxel variance floor spacing^2/12 per axis."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    spacing = np.asarray(spacing, dtype=np.float64)
    return _descending_eigenvalues(_covariance(coords, spacing) + np.diag(spacing**2 / 12.0))


def crop_surface_area(mask: np.ndarray, spacing: tuple[float, float, float]) -> float:
    """``math.fsum`` of the case counts of every cell of the zero-padded mask."""
    case = _cell_cases(np.pad(mask != 0, 1))
    counts = np.bincount(case.ravel(), minlength=256)
    return math.fsum(counts * case_area(tuple(float(s) for s in spacing)))


def reference_shape_metrics(
    coords: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> ShapeMetrics:
    """All shape metrics of one connected component, from its own crop."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if coords.shape[0] == 0:
        raise GeometryError("cannot compute shape metrics of an empty component")
    spacing = tuple(float(s) for s in spacing)
    dv = spacing[0] * spacing[1] * spacing[2]
    volume = coords.shape[0] * dv

    local = coords - coords.min(axis=0)
    mask = np.zeros(tuple(local.max(axis=0) + 1), dtype=bool)
    mask[local[:, 0], local[:, 1], local[:, 2]] = True
    area = crop_surface_area(mask, spacing)

    lam = pca_axes(coords, spacing)
    if coords.shape[0] < 3 or lam[1] < _EIG_ZERO_TOL or lam[2] < _EIG_ZERO_TOL:
        lam = _regularized_axes(coords, spacing)
    elongation = float(np.sqrt(lam[0] / lam[1]))
    flatness = float(np.sqrt(lam[2] / lam[1]))

    (hull_volume,) = voxel_hull_volumes(coords, [len(coords)], spacing)
    sphericity = float(np.pi ** (1.0 / 3.0) * (6.0 * volume) ** (2.0 / 3.0) / area)
    return ShapeMetrics(
        volume=volume,
        area=area,
        sphericity=sphericity,
        compactness=area / volume,
        eigenvalues=lam,
        elongation=elongation,
        flatness=flatness,
        solidity=volume / hull_volume,
    )


def convex_hull_volume(points: np.ndarray) -> float:
    """Volume of the convex hull of a 3D point cloud."""
    faces, pts, interior = float_quickhull(points)
    a = pts[faces[:, 0]] - interior
    b = pts[faces[:, 1]] - interior
    c = pts[faces[:, 2]] - interior
    signed = np.einsum("ij,ij->i", a, _cross(b, c)) / 6.0
    return float(signed.sum())


def voxel_corner_points(
    coords: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> np.ndarray:
    """Corner lattice of a voxel set: centers +/- half a voxel per axis.

    Feeding corners (not centers) to the hull makes a single voxel a proper
    cube of volume dx*dy*dz and removes the coplanar-failure class entirely.
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    doubled = 2 * coords[:, None, :] + _CORNER_SIGNS
    corners = np.unique(doubled.reshape(-1, 3), axis=0)
    return corners * (np.asarray(spacing, dtype=np.float64) / 2.0)


# ---------------------------------------------------------------------------
# Float hull oracles


def float_quickhull(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hull facets (outward-oriented vertex triples) of one float point cloud.

    Returns ``(faces, points, interior_point)`` where ``faces`` is (F, 3)
    indices into ``points``, the distinct input points in sorted order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pts = np.unique(pts, axis=0)
    if pts.shape[0] < 4:
        raise DegenerateHullError(f"need at least 4 distinct points, got {pts.shape[0]}")
    scale = float(np.abs(pts).max())
    eps = 1e-9 * max(scale, 1.0)

    simplex = _float_simplex(pts, eps)
    interior = pts[simplex].mean(axis=0)
    i0, i1, i2, i3 = simplex
    tri = np.array([(i0, i1, i2), (i0, i3, i1), (i1, i3, i2), (i2, i3, i0)], dtype=np.int64)
    normal, offset = _float_planes(pts, tri)
    inward = normal @ interior - offset > 0
    tri[inward] = tri[inward][:, [0, 2, 1]]
    normal[inward] *= -1.0
    offset[inward] *= -1.0
    alive = np.ones(4, dtype=bool)

    # Points outside the hull: index, owning face and distance to its plane.
    rest = np.ones(pts.shape[0], dtype=bool)
    rest[simplex] = False
    live, owner, dist = _float_assign(pts, np.flatnonzero(rest), normal, offset, 0, eps)

    while live.size:
        k = int(np.argmax(dist))
        apex = live[k]
        visible = alive & (normal @ pts[apex] - offset > eps)
        # New faces join the apex to the horizon: the visible faces' directed
        # edges whose reverse is not an edge of another visible face.
        seen = tri[visible]
        start, end = seen.ravel(), seen[:, [1, 2, 0]].ravel()
        edge = start * len(pts) + end
        reverse = np.sort(end * len(pts) + start)
        at = np.minimum(np.searchsorted(reverse, edge), len(reverse) - 1)
        horizon = reverse[at] != edge
        new = np.column_stack(
            [start[horizon], end[horizon], np.full(int(horizon.sum()), apex)]
        )
        new_normal, new_offset = _float_planes(pts, new)
        first = tri.shape[0]
        alive[visible] = False
        tri = np.concatenate([tri, new])
        normal = np.concatenate([normal, new_normal])
        offset = np.concatenate([offset, new_offset])
        alive = np.concatenate([alive, np.ones(len(new), dtype=bool)])

        orphaned = visible[owner]
        orphans = live[orphaned]
        orphans = orphans[orphans != apex]
        o_live, o_owner, o_dist = _float_assign(pts, orphans, new_normal, new_offset, first, eps)
        kept = ~orphaned
        live = np.concatenate([live[kept], o_live])
        owner = np.concatenate([owner[kept], o_owner])
        dist = np.concatenate([dist[kept], o_dist])

    return tri[alive], pts, interior


def _float_planes(pts: np.ndarray, tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals (right-hand rule on the vertex order) and plane offsets."""
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    n = _cross(b - a, c - a)
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    n = np.divide(n, norm, out=np.zeros_like(n), where=norm > 0)
    return n, np.einsum("ij,ij->i", n, a)


def _float_assign(pts, candidates, normal, offset, first, eps):
    """Outside ``candidates`` with the face (``first`` + row) each is farthest above."""
    heights = pts[candidates] @ normal.T - offset
    best = np.argmax(heights, axis=1)
    dist = heights[np.arange(len(candidates)), best]
    outside = dist > eps
    return candidates[outside], best[outside] + first, dist[outside]


def _float_simplex(pts: np.ndarray, eps: float) -> list[int]:
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


def reference_quickhull(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dict-and-loop quickhull: ``(faces, points, interior_point)`` as ``float_quickhull``."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pts = np.unique(pts, axis=0)
    if pts.shape[0] < 4:
        raise DegenerateHullError(f"need at least 4 distinct points, got {pts.shape[0]}")
    scale = float(np.abs(pts).max())
    eps = 1e-9 * max(scale, 1.0)

    simplex = _initial_simplex(pts, eps)
    interior = pts[simplex].mean(axis=0)

    i0, i1, i2, i3 = simplex
    faces: dict[int, tuple[int, int, int]] = {}
    next_id = 0
    for tri in ((i0, i1, i2), (i0, i3, i1), (i1, i3, i2), (i2, i3, i0)):
        faces[next_id] = _orient_outward(tri, pts, interior)
        next_id += 1

    normals = {fid: _plane(pts, tri) for fid, tri in faces.items()}
    outside: dict[int, list[int]] = {fid: [] for fid in faces}
    unclaimed = [i for i in range(pts.shape[0]) if i not in set(simplex)]
    _assign(unclaimed, faces, normals, outside, pts, eps)

    pending = [fid for fid, lst in outside.items() if lst]
    while pending:
        fid = pending.pop()
        if fid not in faces or not outside.get(fid):
            continue
        cand = outside[fid]
        n, d = normals[fid]
        dists = pts[cand] @ n - d
        apex = cand[int(np.argmax(dists))]

        visible = _visible_faces(apex, fid, faces, normals, pts, eps)
        horizon = _horizon_edges(visible, faces)

        orphans: list[int] = []
        for vid in visible:
            orphans.extend(outside.pop(vid, []))
            del faces[vid]
            del normals[vid]
        orphans = [p for p in set(orphans) if p != apex]

        new_ids = []
        for a, b in horizon:
            tri = (a, b, apex)
            tri = _orient_outward(tri, pts, interior)
            faces[next_id] = tri
            normals[next_id] = _plane(pts, tri)
            outside[next_id] = []
            new_ids.append(next_id)
            next_id += 1
        _assign(orphans, {i: faces[i] for i in new_ids}, normals, outside, pts, eps)
        pending.extend(i for i in new_ids if outside[i])

    face_arr = np.array(list(faces.values()), dtype=np.int64)
    return face_arr, pts, interior


def _initial_simplex(pts: np.ndarray, eps: float) -> list[int]:
    lo = int(np.argmin(pts[:, 0]))
    hi = int(np.argmax(pts[:, 0]))
    if not np.any(np.abs(pts[lo] - pts[hi]) > eps):
        extremes = [int(np.argmin(pts[:, k])) for k in range(3)]
        extremes += [int(np.argmax(pts[:, k])) for k in range(3)]
        best = (lo, hi, -1.0)
        for i in extremes:
            for j in extremes:
                d = float(np.linalg.norm(pts[i] - pts[j]))
                if d > best[2]:
                    best = (i, j, d)
        lo, hi, dist = best
        if dist <= eps:
            raise DegenerateHullError("all points coincide")
    line = pts[hi] - pts[lo]
    rel = pts - pts[lo]
    cross = np.cross(rel, line)
    d_line = np.linalg.norm(cross, axis=1)
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


def _plane(pts: np.ndarray, tri: tuple[int, int, int]) -> tuple[np.ndarray, float]:
    a, b, c = pts[tri[0]], pts[tri[1]], pts[tri[2]]
    n = np.cross(b - a, c - a)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        n = np.zeros(3)
    else:
        n = n / norm
    return n, float(n @ a)


def _orient_outward(
    tri: tuple[int, int, int], pts: np.ndarray, interior: np.ndarray
) -> tuple[int, int, int]:
    n, d = _plane(pts, tri)
    if n @ interior - d > 0:
        return (tri[0], tri[2], tri[1])
    return tri


def _assign(candidates, faces, normals, outside, pts, eps) -> None:
    for p in candidates:
        best_fid, best_dist = -1, eps
        for fid in faces:
            n, d = normals[fid]
            dist = float(pts[p] @ n - d)
            if dist > best_dist:
                best_fid, best_dist = fid, dist
        if best_fid >= 0:
            outside[best_fid].append(p)


def _visible_faces(apex, start, faces, normals, pts, eps) -> set[int]:
    visible = set()
    stack = [start]
    edge_owner = {}
    for fid, tri in faces.items():
        for k in range(3):
            edge_owner[(tri[k], tri[(k + 1) % 3])] = fid
    while stack:
        fid = stack.pop()
        if fid in visible:
            continue
        n, d = normals[fid]
        if float(pts[apex] @ n - d) > eps or fid == start:
            visible.add(fid)
            tri = faces[fid]
            for k in range(3):
                rev = (tri[(k + 1) % 3], tri[k])
                neighbor = edge_owner.get(rev)
                if neighbor is not None and neighbor not in visible:
                    stack.append(neighbor)
    return visible


def _horizon_edges(visible, faces) -> list[tuple[int, int]]:
    edges = []
    for fid in visible:
        tri = faces[fid]
        for k in range(3):
            edges.append((tri[k], tri[(k + 1) % 3]))
    edge_set = set(edges)
    return [e for e in edges if (e[1], e[0]) not in edge_set]
