"""Isosurface extraction and triangle-mesh measurements.

Marching cubes runs at iso-level 0.5 on a one-voxel zero-padded copy of the
mask with linear edge interpolation, so meshes are closed by construction;
vertex positions are scaled by the voxel spacing into millimeters.  The
triangles of all active cells are gathered from the case table at once; each
triangle corner is keyed by the grid edge it lies on (lower corner, axis), and
``np.unique`` welds equal keys into one vertex, numbered in order of first use.

On a binary mask every vertex is an edge midpoint, so the surface area needs
no mesh: it is ``math.fsum`` of the cells' case counts times :func:`case_area`,
each case's triangle area at the given spacing.  ``_component_areas`` counts
the cases of many voxel sets with one pass over their crops laid side by side
(one pass per crop width class); it gives the area that descriptors report (through
:func:`shape.component_shape_metrics`), and :func:`surface_area` is its call
for one mask.  :func:`marching_cubes` serves mesh export.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .fileio import atomic_write
from .mc_tables import TRI_TABLE

# Cube corner offsets and the corner pair of each of the 12 edges, in the
# numbering the tables assume (v0 at the cell origin; x, then y, then z).
CORNER_OFFSETS = np.array(
    [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (0, 1, 1),
    ],
    dtype=np.int64,
)
EDGE_CORNERS = [
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
]

# Each edge as (corner offset of its lower endpoint, axis it runs along): the
# key that welds the vertex a grid edge carries across the cells sharing it.
_EDGE_ENDS = CORNER_OFFSETS[np.array(EDGE_CORNERS)]  # (12, 2, 3)
_EDGE_LO = _EDGE_ENDS.min(axis=1)
_EDGE_AXIS = np.argmax(_EDGE_ENDS[:, 0] != _EDGE_ENDS[:, 1], axis=1)

# Up to five edge-index triangles per case; rows of -1 pad the unused slots.
_CASE_TRIANGLES = np.array(TRI_TABLE, dtype=np.int64)[:, :15].reshape(256, 5, 3)

ISO_LEVEL = 0.5


@dataclass
class SurfaceMesh:
    """Triangle mesh in world millimeters."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise GeometryError("triangle indices out of range")
        if not np.isfinite(self.vertices).all():
            raise GeometryError("non-finite mesh vertex")


def _cell_cases(inside: np.ndarray) -> np.ndarray:
    """Case index of every cell of a padded boolean grid.

    Bit i is set when cell corner i is background (below the iso-level),
    matching the table convention.
    """
    nx, ny, nz = (s - 1 for s in inside.shape)
    case = np.zeros((nx, ny, nz), dtype=np.uint8)
    for bit, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        below = ~inside[ox : ox + nx, oy : oy + ny, oz : oz + nz]
        case |= below.view(np.uint8) << bit
    return case


@functools.lru_cache(maxsize=16)
def case_area(spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> np.ndarray:
    """Surface area in mm^2 that each of the 256 cases puts in one cell.

    On a binary mask at iso-level 0.5 every vertex is an edge midpoint, so a
    case's triangles are the same in every cell; this is their summed area.
    One read-only table is kept per spacing (a tuple), since every component
    of a study shares it.
    """
    midpoints = (_EDGE_LO + 0.5 * np.eye(3)[_EDGE_AXIS]) * np.asarray(spacing, dtype=np.float64)
    p, q, r = (midpoints[_CASE_TRIANGLES[:, :, k]] for k in range(3))  # (256, 5, 3) each
    areas = 0.5 * np.linalg.norm(np.cross(q - p, r - p), axis=2)
    table = np.where(_CASE_TRIANGLES[:, :, 0] >= 0, areas, 0.0).sum(axis=1)
    table.flags.writeable = False
    return table


def surface_area(
    mask: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> float:
    """Area in mm^2 of the marching-cubes surface of a binary mask, without a mesh.

    ``math.fsum`` of the mask's case counts times :func:`case_area`; it equals
    ``triangle_areas(marching_cubes(mask, spacing)).sum()`` up to the
    rounding of the two sums.
    """
    mask = np.asarray(mask)
    if mask.ndim != 3:
        raise GeometryError(f"mask must be 3D, got shape {mask.shape}")
    coords = np.argwhere(mask)
    if len(coords) == 0:
        return 0.0
    return _component_areas(coords, np.array([len(coords)]), spacing)[0]


def _component_areas(
    coords: np.ndarray, sizes: np.ndarray, spacing: tuple[float, float, float]
) -> list[float]:
    """Marching-cubes area in mm^2 of each of k voxel sets, from their crops' cases.

    ``coords`` holds the sets' voxels one after another, ``sizes[i]`` rows
    each.  Sets whose crops have about the same width on the second and the
    third axis (the same power of two above it) share one canvas and one case
    pass (:func:`_canvas_case_counts`), so padding a crop to the canvas at
    most doubles each of those widths.  Each area is ``math.fsum`` of the
    set's case counts times :func:`case_area`.
    """
    starts = np.cumsum(sizes) - sizes
    lo = np.minimum.reduceat(coords, starts, axis=0)
    extent = np.maximum.reduceat(coords, starts, axis=0) - lo + 1
    width = np.ceil(np.log2(extent[:, 1:] + 2)).astype(np.int64)
    canvas_of = np.unique(width, axis=0, return_inverse=True)[1].ravel()
    local = coords - np.repeat(lo, sizes, axis=0)
    counts = np.empty((len(sizes), 256), dtype=np.int64)
    for c in range(canvas_of.max() + 1):
        members = canvas_of == c
        counts[members] = _canvas_case_counts(
            local[np.repeat(members, sizes)], sizes[members], extent[members])
    used = np.flatnonzero(counts)
    products = (counts.ravel()[used]
                * case_area(tuple(float(s) for s in spacing))[used % 256]).tolist()
    ends = np.searchsorted(used, 256 * np.arange(1, len(sizes) + 1)).tolist()
    return [math.fsum(products[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _canvas_case_counts(local: np.ndarray, sizes: np.ndarray, extent: np.ndarray) -> np.ndarray:
    """(m, 256) case counts of m voxel sets laid out on one canvas.

    ``local`` holds each set's voxels relative to its crop's lowest corner,
    one set after another, and ``extent`` the crops' widths.  The crops go
    one after another along the first axis, with a background plane before,
    between and after them, padded with background to the widest on the
    other two axes.  A cell then sees the voxels of at most one set, and its
    plane says which: each set's cells with triangles are those of its own
    padded crop, so the sets may touch or overlap in the grid they came from.
    """
    planes = extent[:, 0] + 1  # a crop and the background plane before it
    first = np.cumsum(planes) - extent[:, 0]  # canvas plane of each crop's lowest voxels
    shape = (int(planes.sum()) + 1, int(extent[:, 1].max()) + 2, int(extent[:, 2].max()) + 2)
    canvas = np.zeros(shape, dtype=bool)
    canvas[np.repeat(first, sizes) + local[:, 0], local[:, 1] + 1, local[:, 2] + 1] = True
    owner = np.repeat(np.arange(len(sizes)) * 256, planes)  # of each plane of cells
    keys = _cell_cases(canvas) + owner[:, None, None]
    return np.bincount(keys.ravel(), minlength=len(sizes) * 256).reshape(-1, 256)


def marching_cubes(
    mask: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> SurfaceMesh:
    """Extract the closed iso-surface of a nonempty binary mask.

    Vertices are welded: a grid edge crossed by the surface contributes one
    vertex shared by every incident triangle, which is what makes the
    every-edge-in-two-triangles closure property checkable.
    """
    mask = np.asarray(mask)
    if mask.ndim != 3:
        raise GeometryError(f"mask must be 3D, got shape {mask.shape}")
    if not (mask != 0).any():
        raise GeometryError("cannot mesh an empty component")

    grid = np.zeros(tuple(d + 2 for d in mask.shape), dtype=np.float64)
    grid[1:-1, 1:-1, 1:-1] = (mask != 0).astype(np.float64)
    case = _cell_cases(grid >= ISO_LEVEL)

    active = np.argwhere((case != 0) & (case != 255))
    tris = _CASE_TRIANGLES[case[tuple(active.T)]]  # (cells, 5, 3)
    used = tris[:, :, 0] >= 0
    edges = tris[used].ravel()  # triangle corners in cell, triangle, corner order
    base = active[np.repeat(np.nonzero(used)[0], 3)] + _EDGE_LO[edges]
    axis = _EDGE_AXIS[edges]

    # One vertex per crossed grid edge, numbered in order of first use.
    key = np.ravel_multi_index(tuple(base.T), grid.shape) * 3 + axis
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    triangles = np.argsort(order)[inverse].reshape(-1, 3)

    base = base[first[order]]
    unit = np.eye(3, dtype=np.int64)[axis[first[order]]]
    v0 = grid[tuple(base.T)]
    v1 = grid[tuple((base + unit).T)]
    mu = (ISO_LEVEL - v0) / (v1 - v0)
    # Undo the one-voxel pad and scale to millimeters.
    vertices = (base + mu[:, None] * unit - 1.0) * np.asarray(spacing, dtype=np.float64)

    mesh = SurfaceMesh(vertices, triangles)
    areas = triangle_areas(mesh)
    if areas.size and areas.min() <= 0.0:
        raise GeometryError("marching cubes produced a degenerate triangle")
    return mesh


def triangle_areas(mesh: SurfaceMesh) -> np.ndarray:
    p = mesh.vertices[mesh.triangles[:, 0]]
    q = mesh.vertices[mesh.triangles[:, 1]]
    r = mesh.vertices[mesh.triangles[:, 2]]
    cross = np.cross(q - p, r - p)
    return 0.5 * np.linalg.norm(cross, axis=1)


def write_off(mesh: SurfaceMesh, path) -> None:
    """Write the mesh in ASCII OFF format, atomically."""
    nv, nt = len(mesh.vertices), len(mesh.triangles)
    atomic_write(path, f"OFF\n{nv} {nt} 0\n"
                 + "%.9g %.9g %.9g\n" * nv % tuple(mesh.vertices.ravel().tolist())
                 + "3 %d %d %d\n" * nt % tuple(mesh.triangles.ravel().tolist()))
