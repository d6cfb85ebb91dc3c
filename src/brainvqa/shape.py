"""Per-component 3D shape metrics, aggregation, and category assignment.

Metrics per component: voxel volume, marching-cubes surface area, sphericity,
compactness (area/volume), principal-axis elongation and flatness, and
convex-hull solidity.  :func:`component_shape_metrics` computes them for
every component of a ragged set (all voxels in one array, grouped by
component, and the components' sizes, as a :class:`ComponentLabeling` holds
them) in one pass, and builds no mesh or float hull.  The area is
``math.fsum`` of each component's marching-cubes case counts times each
case's area, from one case pass over all components' crops laid side by side
(``surface._component_areas``).  The hull volume is exact on the doubled
voxel-corner lattice (one :func:`hull.voxel_hull_volumes` call).  The
eigenvalues come from one stacked ``eigvalsh``; only the 3x3 covariance is
formed per component, by the same float expression as for a component alone.
A label's shape reads :func:`shape_components`: the core alone when it
dominates (``ComponentLabeling.core_dominates``), else every component; the
aggregate is the mean of their metrics, and the category comes from fixed
sphericity and elongation thresholds with a small-volume "focus" override.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import GeometryError
from .hull import voxel_hull_volumes
from .morphology import NOT_AVAILABLE, ComponentLabeling
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
    coords: np.ndarray, sizes: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> list[ShapeMetrics]:
    """All shape metrics of each of several components given their voxel coords.

    ``coords`` holds the components' voxels one after another, ``sizes[i]``
    rows each.  Each component's metrics are those it has on its own,
    wherever the others lie.  A single voxel takes the same path (its surface
    is the octahedron, its hull the cube).
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    sizes = np.asarray(sizes, dtype=np.int64)
    if not len(sizes) or sizes.min() == 0:
        raise GeometryError("cannot compute shape metrics of an empty component")
    spacing = tuple(float(s) for s in spacing)
    dv = spacing[0] * spacing[1] * spacing[2]
    hull_volumes = voxel_hull_volumes(coords, sizes, spacing)
    areas = _component_areas(coords, sizes, spacing)
    lam = _eigenvalues(coords, sizes, np.asarray(spacing))
    elongation = np.sqrt(lam[:, 0] / lam[:, 1]).tolist()
    flatness = np.sqrt(lam[:, 2] / lam[:, 1]).tolist()

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
    coords: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> ShapeMetrics:
    """All shape metrics of one connected component given its voxel coords."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    return component_shape_metrics(coords, [len(coords)], spacing)[0]


def aggregate_metrics(per_component: list[ShapeMetrics]) -> ShapeMetrics:
    """Field-wise unweighted mean; the mean of one component is that component."""
    if not per_component:
        raise GeometryError("aggregate_metrics needs at least one component")
    values = {}
    for f in fields(ShapeMetrics):
        mean = np.mean([getattr(m, f.name) for m in per_component], axis=0).tolist()
        values[f.name] = tuple(mean) if f.name == "eigenvalues" else mean
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


def shape_components(labeling: ComponentLabeling) -> tuple[np.ndarray, np.ndarray]:
    """The ``(coords, sizes)`` prefix of the components whose metrics the
    aggregate reads: the core alone when it dominates, else all of them."""
    if labeling.core_dominates:
        return labeling.coords[:labeling.sizes[0]], labeling.sizes[:1]
    return labeling.coords, labeling.sizes


def describe_shape(
    labeling: ComponentLabeling, per_component: list[ShapeMetrics]
) -> tuple[str, ShapeMetrics | None]:
    """Category plus aggregated metrics for a labeled mask (N/A when empty).

    ``per_component`` are the metrics of :func:`shape_components` of the
    labeling, in its order.
    """
    if labeling.n_components == 0:
        return NOT_AVAILABLE, None
    agg = aggregate_metrics(per_component)
    return shape_classify(agg, labeling.total_volume), agg
