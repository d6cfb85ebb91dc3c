"""26-connected component decomposition and lesion spread classification.

Connectivity is hard-fixed at 26 (full 3x3x3 neighborhood).  Components are
numbered by decreasing voxel count, ties broken by the lowest first-voxel
linear index (first axis fastest), so the core component is always index 0
and outputs are deterministic.

Labeling is array code over a label's voxel coordinates from the study's one
label split (no full grid): they get a dense index inside their bounding box
padded by one voxel, the 13 half-neighborhood offsets list every adjacent
voxel pair once, and the larger root of each disagreeing pair is hooked onto
the smaller (``np.minimum.at``) with pointer jumping in between until every
pair agrees (Shiloach & Vishkin 1982).  A labeling is ragged: all voxels in
one array grouped by component, and the components' voxel counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPREAD_SINGLE = "single lesion"
SPREAD_CORE_SATELLITES = "core with satellite lesions"
SPREAD_SCATTERED = "scattered lesions"
NOT_AVAILABLE = "N/A"

CORE_FRACTION_THRESHOLD = 0.7

# The 13 lexicographically-negative offsets of the 26-neighborhood; each
# unordered neighbor pair is visited exactly once.
_HALF_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) < (0, 0, 0)
]


@dataclass
class ComponentLabeling:
    """Partition of a voxel set into 26-connected components.

    ``coords`` is the (n, 3) int64 voxel index array of all components, one
    after another in component order, each one's voxels in input order;
    ``sizes[i]`` (int64) is the voxel count of component ``i``.
    """

    coords: np.ndarray
    sizes: np.ndarray
    voxel_volume_mm3: float

    @property
    def n_components(self) -> int:
        return len(self.sizes)

    @property
    def total_voxels(self) -> int:
        return int(self.sizes.sum())

    @property
    def total_volume(self) -> float:
        return float(sum(size * self.voxel_volume_mm3 for size in self.sizes.tolist()))

    @property
    def core_fraction(self) -> float:
        if not self.n_components:
            return 0.0
        return int(self.sizes[0]) * self.voxel_volume_mm3 / self.total_volume

    @property
    def core_dominates(self) -> bool:
        """The core (component 0) alone stands for the label: it is the only
        component or holds at least 70% of the volume."""
        return self.n_components == 1 or self.core_fraction >= CORE_FRACTION_THRESHOLD


@dataclass(frozen=True)
class SpreadDescriptor:
    category: str
    core_fraction: float
    n_components: int


def connected_components(
    coords: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> ComponentLabeling:
    """Label the 26-connected components of a set of distinct voxels.

    ``coords`` is an (n, 3) integer array of voxel indices.  No voxels yield
    an empty labeling with ``n_components == 0`` (downstream maps it to N/A);
    it is not an error.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must index a 3D grid as (n, 3), got shape {coords.shape}")
    dv = float(spacing[0] * spacing[1] * spacing[2])
    n = coords.shape[0]
    if n == 0:
        return ComponentLabeling(coords, np.zeros(0, dtype=np.int64), dv)

    # Dense voxel index over the bounding box padded by one voxel, so every
    # neighbor lookup stays inside the box; -1 marks background.
    lo = coords.min(axis=0) - 1
    box = tuple(coords.max(axis=0) - lo + 2)
    local = (coords - lo).T
    flat = np.ravel_multi_index(local, box)
    index = np.full(int(np.prod(box)), -1, dtype=np.int64)
    index[flat] = np.arange(n)
    steps = np.array(_HALF_OFFSETS) @ (box[1] * box[2], box[2], 1)
    neigh = index[flat + steps[:, None]]  # (13, n)
    hit = neigh >= 0
    a, b = np.nonzero(hit)[1], neigh[hit]

    # Hook the larger root of every disagreeing edge onto the smaller one,
    # then jump pointers until each voxel points at its root.  Labels only
    # ever decrease, so each component ends labeled by its lowest index.
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            break
        a, b, la, lb = a[differ], b[differ], la[differ], lb[differ]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(up := label[label], label):
            label = up

    # Deterministic ordering: decreasing size, ties by lowest first-voxel
    # linear index (first axis fastest, matching the volume layout; the box
    # index orders voxels as the grid index does).
    _, comp, sizes = np.unique(label, return_inverse=True, return_counts=True)
    linear = np.ravel_multi_index(local, box, order="F")
    first = np.full(sizes.size, linear.max())
    np.minimum.at(first, comp, linear)
    order = np.lexsort((first, -sizes))
    new_id = np.argsort(order)[comp]

    members = coords[np.argsort(new_id, kind="stable")]
    return ComponentLabeling(members, sizes[order].astype(np.int64), dv)


def spread_classify(labeling: ComponentLabeling) -> SpreadDescriptor:
    """Map a component labeling onto the three-way spread vocabulary.

    One component is a single lesion; multiple components where the largest
    holds at least 70% of the volume are a core with satellites; anything
    else is scattered.  An empty voxel set is N/A.
    """
    n = labeling.n_components
    if n == 0:
        return SpreadDescriptor(NOT_AVAILABLE, 0.0, 0)
    if n == 1:
        category = SPREAD_SINGLE
    elif labeling.core_dominates:
        category = SPREAD_CORE_SATELLITES
    else:
        category = SPREAD_SCATTERED
    return SpreadDescriptor(category, labeling.core_fraction, n)
