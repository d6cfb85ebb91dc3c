"""Per-component 3D shape metrics, aggregation, and category assignment.

Metrics per component: voxel volume, marching-cubes surface area, sphericity,
compactness (area/volume), principal-axis elongation and flatness, and
convex-hull solidity.  :func:`component_shape_metrics` computes them for all
components of a label at once, and builds no mesh or float hull.  The area is
``math.fsum`` of each component's marching-cubes case counts times each
case's area, from one case pass over all components' crops laid side by side
(``surface._component_areas``).  The hull volume is exact on the doubled
voxel-corner lattice (:func:`hull.voxel_hull_volumes`).  The eigenvalues come
from one stacked ``eigvalsh``; only the 3x3 covariance is formed per
component, by the same float expression as for a component alone.
Aggregation keeps the core component's metrics when it dominates (and only
the core's are then computed), otherwise averages; the category comes from
fixed sphericity and elongation thresholds with a small-volume "focus"
override.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import GeometryError
from .hull import voxel_hull_volumes
from .morphology import CORE_FRACTION_THRESHOLD, NOT_AVAILABLE, ComponentLabeling
from .surface import _component_areas

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


def _eigenvalues(coords: np.ndarray, sizes: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """(k, 3) descending eigenvalues of each component's covariance, in mm^2.

    ``coords`` holds the k components' voxels one after another, ``sizes[i]``
    rows each.  The biased covariance of the world voxel centers is formed
    per component: the sum of its rows and ``centered.T @ centered`` are one
    call each, since a segmented sum or a zero-padded batched product adds in
    another order (stacking equal-size components is exact, but slower).
    A voxel is a cube, not a point: where a component has fewer than 3
    voxels or a zero minor axis, adding spacing^2/12 per axis (the variance
    of a uniform voxel) keeps elongation and flatness finite.
    """
    world = coords * spacing
    ends = np.cumsum(sizes)
    runs = list(enumerate(zip((ends - sizes).tolist(), ends.tolist())))
    sums, cov = np.empty((len(sizes), 3)), np.empty((len(sizes), 3, 3))
    for k, (a, b) in runs:  # the sum that world[a:b].mean(axis=0) divides
        np.add.reduce(world[a:b], axis=0, out=sums[k])
    centered = world - np.repeat(sums / sizes[:, None], sizes, axis=0)
    for k, (a, b) in runs:
        np.matmul(centered[a:b].T, centered[a:b], out=cov[k])
    cov /= sizes[:, None, None]
    lam = np.clip(np.linalg.eigvalsh(cov), 0.0, None)[:, ::-1]
    floor = (sizes < 3) | (lam[:, 1] < _EIG_ZERO_TOL) | (lam[:, 2] < _EIG_ZERO_TOL)
    if floor.any():
        floored = cov[floor] + np.diag(spacing**2 / 12.0)
        lam[floor] = np.clip(np.linalg.eigvalsh(floored), 0.0, None)[:, ::-1]
    return lam


def component_shape_metrics(
    coords_list: list[np.ndarray],
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    hull_volumes: list[float] | None = None,
) -> list[ShapeMetrics]:
    """All shape metrics of each of several components given their voxel coords.

    Each component's metrics are those it has on its own, wherever the others
    lie.  ``hull_volumes`` are the exact hull volumes of their corners,
    computed here when not given.  A single voxel takes the same path (its
    surface is the octahedron, its hull the cube).
    """
    coords_list = [np.asarray(c, dtype=np.int64).reshape(-1, 3) for c in coords_list]
    if not coords_list or min(map(len, coords_list)) == 0:
        raise GeometryError("cannot compute shape metrics of an empty component")
    spacing = tuple(float(s) for s in spacing)
    dv = spacing[0] * spacing[1] * spacing[2]
    sizes = np.array([len(c) for c in coords_list])
    coords = np.concatenate(coords_list)
    areas = _component_areas(coords, sizes, spacing)
    lam = _eigenvalues(coords, sizes, np.asarray(spacing))
    elongation = np.sqrt(lam[:, 0] / lam[:, 1]).tolist()
    flatness = np.sqrt(lam[:, 2] / lam[:, 1]).tolist()
    if hull_volumes is None:
        hull_volumes = voxel_hull_volumes(coords_list, spacing)

    out = []
    for n, area, hull_volume, eig, e, f in zip(
            sizes.tolist(), areas, hull_volumes, lam.tolist(), elongation, flatness, strict=True):
        volume = n * dv
        out.append(ShapeMetrics(
            volume=volume,
            area=area,
            sphericity=np.pi ** (1.0 / 3.0) * (6.0 * volume) ** (2.0 / 3.0) / area,
            compactness=area / volume,
            eigenvalues=tuple(eig),
            elongation=e,
            flatness=f,
            solidity=volume / hull_volume,
        ))
    return out


def shape_metrics(
    coords: np.ndarray,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    hull_volume: float | None = None,
) -> ShapeMetrics:
    """All shape metrics of one connected component given its voxel coords."""
    hulls = None if hull_volume is None else [hull_volume]
    return component_shape_metrics([coords], spacing, hulls)[0]


def _core_dominates(f_core: float, n_components: int) -> bool:
    return n_components == 1 or f_core >= CORE_FRACTION_THRESHOLD


def aggregate_metrics(
    per_component: list[ShapeMetrics], f_core: float, n_components: int
) -> ShapeMetrics:
    """Core component's metrics when it dominates, else the unweighted mean.

    The core is dominant when it is the only component or holds at least 70%
    of the total volume; component 0 is the core by the labeling order.
    """
    if not per_component:
        raise GeometryError("aggregate_metrics needs at least one component")
    if _core_dominates(f_core, n_components):
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


def shape_components(labeling: ComponentLabeling) -> list[np.ndarray]:
    """The components whose metrics the aggregate reads: the core alone when
    it dominates, else all of them."""
    coords = labeling.component_coords
    return coords[:1] if _core_dominates(labeling.core_fraction, labeling.n_components) else coords


def describe_shape(
    labeling: ComponentLabeling,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    hull_volumes: list[float] | None = None,
) -> tuple[str, ShapeMetrics | None]:
    """Category plus aggregated metrics for a labeled mask (N/A when empty).

    Metrics are computed in one call for :func:`shape_components`;
    ``hull_volumes``, one per component of that list, default to one hull
    call over them.
    """
    if labeling.n_components == 0:
        return NOT_AVAILABLE, None
    per_component = component_shape_metrics(shape_components(labeling), spacing, hull_volumes)
    agg = aggregate_metrics(per_component, labeling.core_fraction, labeling.n_components)
    return shape_classify(agg, labeling.total_volume), agg
