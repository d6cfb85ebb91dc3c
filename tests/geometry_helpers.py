"""Mesh and hull checks that only tests and acceptance criteria use.

The descriptor path needs none of these: it takes the area from case counts
(``surface.surface_area``) and the solidity from the exact lattice hull volume
(``hull.voxel_hull_volume``).  What stays here checks those against meshes
and float hulls: edge closure and winding of a mesh, the analytic mesh of one
voxel, and the float hull volume of a point cloud or of a voxel set's corners.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from brainvqa.hull import _CORNER_SIGNS, _cross, quickhull
from brainvqa.surface import SurfaceMesh


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


def convex_hull_volume(points: np.ndarray) -> float:
    """Volume of the convex hull of a 3D point cloud."""
    faces, pts, interior = quickhull(points)
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
