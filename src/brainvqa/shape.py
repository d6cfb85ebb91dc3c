"""Per-component 3D shape metrics, aggregation, and category assignment.

Metrics per component: voxel volume, marching-cubes surface area, sphericity,
compactness (area/volume), principal-axis elongation and flatness, and
convex-hull solidity.  Both sums are canonical and build no mesh or float
hull: the area is ``math.fsum`` of the component crop's marching-cubes case
counts times each case's area (:func:`surface.surface_area`), and the hull
volume is exact on the doubled voxel-corner lattice
(:func:`hull.voxel_hull_volumes`, one call for many components).  Aggregation
keeps the core component's metrics when it dominates, otherwise averages; the
category comes from fixed sphericity and elongation thresholds with a
small-volume "focus" override.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import GeometryError
from .hull import voxel_hull_volumes
from .morphology import CORE_FRACTION_THRESHOLD, NOT_AVAILABLE, ComponentLabeling
from .surface import surface_area

SHAPE_FOCUS = "focus"
SHAPE_ROUND = "round"
SHAPE_OVAL = "oval"
SHAPE_ELONGATED = "elongated"
SHAPE_IRREGULAR = "irregular"
SHAPE_CATEGORIES = (SHAPE_FOCUS, SHAPE_ROUND, SHAPE_OVAL, SHAPE_ELONGATED, SHAPE_IRREGULAR)

FOCUS_VOLUME_MM3 = 100.0  # 0.1 cm^3
ROUND_SPHERICITY = 0.85
OVAL_SPHERICITY = 0.60
ROUND_ELONGATION = 1.3
OVAL_ELONGATION = 2.5

_EIG_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ShapeMetrics:
    volume: float  # mm^3
    area: float  # mm^2
    sphericity: float
    compactness: float  # mm^-1
    eigenvalues: tuple[float, float, float]  # mm^2, descending
    elongation: float
    flatness: float
    solidity: float


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
    """Eigenvalues with the single-voxel variance floor mixed in.

    A voxel is a cube, not a point: adding spacing^2/12 per axis (the variance
    of a uniform voxel) keeps elongation and flatness finite for components
    with fewer than 3 voxels or with a zero minor axis.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    spacing = np.asarray(spacing, dtype=np.float64)
    return _descending_eigenvalues(_covariance(coords, spacing) + np.diag(spacing**2 / 12.0))


def shape_metrics(
    coords: np.ndarray,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    hull_volume: float | None = None,
) -> ShapeMetrics:
    """All shape metrics of one connected component given its voxel coords.

    The area comes from the case counts of the component's bounding-box crop
    and the solidity from ``hull_volume``, the exact hull volume of its
    corners (computed here when not given); a single voxel takes the same
    path (its surface is the octahedron, its hull the cube).
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if coords.shape[0] == 0:
        raise GeometryError("cannot compute shape metrics of an empty component")
    spacing = tuple(float(s) for s in spacing)
    dv = spacing[0] * spacing[1] * spacing[2]
    volume = coords.shape[0] * dv

    local = coords - coords.min(axis=0)
    mask = np.zeros(tuple(local.max(axis=0) + 1), dtype=bool)
    mask[local[:, 0], local[:, 1], local[:, 2]] = True
    area = surface_area(mask, spacing)

    lam = pca_axes(coords, spacing)
    if coords.shape[0] < 3 or lam[1] < _EIG_ZERO_TOL or lam[2] < _EIG_ZERO_TOL:
        lam = _regularized_axes(coords, spacing)
    elongation = float(np.sqrt(lam[0] / lam[1]))
    flatness = float(np.sqrt(lam[2] / lam[1]))

    if hull_volume is None:
        hull_volume = voxel_hull_volumes([coords], spacing)[0]
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


def aggregate_metrics(
    per_component: list[ShapeMetrics], f_core: float, n_components: int
) -> ShapeMetrics:
    """Core component's metrics when it dominates, else the unweighted mean.

    The core is dominant when it is the only component or holds at least 70%
    of the total volume; component 0 is the core by the labeling order.
    """
    if not per_component:
        raise GeometryError("aggregate_metrics needs at least one component")
    if n_components == 1 or f_core >= CORE_FRACTION_THRESHOLD:
        return per_component[0]
    values = {}
    for f in fields(ShapeMetrics):
        column = [getattr(m, f.name) for m in per_component]
        if f.name == "eigenvalues":
            values[f.name] = tuple(np.mean(column, axis=0))
        else:
            values[f.name] = float(np.mean(column))
    return ShapeMetrics(**values)


def shape_classify(agg: ShapeMetrics, total_volume_mm3: float) -> str:
    """Five-way shape category; cases evaluated in listed order, first match wins."""
    phi, e = agg.sphericity, agg.elongation
    if total_volume_mm3 < FOCUS_VOLUME_MM3:
        return SHAPE_FOCUS
    if phi >= ROUND_SPHERICITY and e <= ROUND_ELONGATION:
        return SHAPE_ROUND
    if OVAL_SPHERICITY <= phi < ROUND_SPHERICITY and ROUND_ELONGATION < e <= OVAL_ELONGATION:
        return SHAPE_OVAL
    if e > OVAL_ELONGATION:
        return SHAPE_ELONGATED
    return SHAPE_IRREGULAR


def describe_shape(
    labeling: ComponentLabeling,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    hull_volumes: list[float] | None = None,
) -> tuple[str, ShapeMetrics | None]:
    """Category plus aggregated metrics for a labeled mask (N/A when empty);
    ``hull_volumes`` default to one hull call over its components."""
    if labeling.n_components == 0:
        return NOT_AVAILABLE, None
    coords = labeling.component_coords
    if hull_volumes is None:
        hull_volumes = voxel_hull_volumes(coords, spacing)
    per_component = [shape_metrics(c, spacing, h) for c, h in zip(coords, hull_volumes)]
    agg = aggregate_metrics(per_component, labeling.core_fraction, labeling.n_components)
    return shape_classify(agg, labeling.total_volume), agg
