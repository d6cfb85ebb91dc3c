"""26-connected component decomposition and lesion spread classification.

Connectivity is hard-fixed at 26 (full 3x3x3 neighborhood).  Components are
numbered by decreasing voxel count, ties broken by the lowest first-voxel
linear index (first axis fastest), so the core component is always index 0
and outputs are deterministic.

Labeling is array code over a label's voxel coordinates from the study's one
label split (no full grid), and works on maximal runs along the last axis,
not on voxels (He, Chao & Suzuki 2008).  The voxels take their C-order index
inside their bounding box padded by one voxel; a stable sort leaves input in
C order (as the split gives it) as it is, and the runs are the stretches of
consecutive indices.  Two runs are 26-adjacent when their lines differ by at
most one on both other axes and their intervals, one widened by one, overlap:
for each of the 4 half-neighborhood lines, those runs are one contiguous
range of the sorted runs, found with two ``searchsorted``.  The larger root
of each disagreeing pair is hooked onto the smaller (``np.minimum.at``) with
pointer jumping in between until every pair agrees (Shiloach & Vishkin 1982),
and each voxel takes its run's component.  A labeling is ragged: all voxels
in one array grouped by component, each component's in input order, and the
components' voxel counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPREAD_SINGLE = "single lesion"
SPREAD_CORE_SATELLITES = "core with satellite lesions"
SPREAD_SCATTERED = "scattered lesions"
NOT_AVAILABLE = "N/A"

CORE_FRACTION_THRESHOLD = 0.7

# The 4 lexicographically-negative (first, second) axis offsets of the 8
# neighbor lines of a last-axis line; each unordered pair of lines is
# visited once, and two runs of one line are never adjacent.
_HALF_LINES = [(-1, -1), (-1, 0), (-1, 1), (0, -1)]


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

    # C-order index in the bounding box padded by one voxel, so a run never
    # reaches the next line and its widened interval stays on its own line.
    lo = coords.min(axis=0) - 1
    box = coords.max(axis=0) - lo + 2
    x, y, z = (coords - lo).T
    linear = (x * box[1] + y) * box[2] + z
    order = np.argsort(linear, kind="stable")  # one pass over input already in C order
    linear = linear[order]
    starts = np.flatnonzero(np.diff(linear, prepend=linear[0] - 2) != 1)
    length = np.diff(starts, append=n)
    first, last = linear[starts], linear[starts + length - 1]

    # Runs of a half-neighborhood line that overlap a run's interval widened
    # by one: a contiguous range of the sorted runs, from the first ending at
    # or after its start to the last starting at or before its end.
    steps = np.array(_HALF_LINES) @ (box[1] * box[2], box[2])
    low = last.searchsorted((first - 1 + steps[:, None]).ravel())
    count = first.searchsorted((last + 1 + steps[:, None]).ravel(), side="right") - low
    a = np.repeat(np.tile(np.arange(len(starts)), len(steps)), count)
    b = np.arange(count.sum()) + np.repeat(low - np.cumsum(count) + count, count)

    # Hook the larger root of every disagreeing edge onto the smaller one,
    # then jump pointers until each run points at its root.  Labels only
    # ever decrease, so each component ends labeled by its lowest run.
    label = np.arange(len(starts))
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
    # linear index (first axis fastest, matching the volume layout).  A
    # component's first voxel in that order has its lowest last-axis index,
    # so it starts a run.
    _, comp = np.unique(label, return_inverse=True)
    sizes = np.bincount(comp, weights=length).astype(np.int64)
    xy, z = np.divmod(first, box[2])
    x, y = np.divmod(xy, box[1])
    key = (z * box[1] + y) * box[0] + x
    lowest = np.full(sizes.size, key.max())
    np.minimum.at(lowest, comp, key)
    rank = np.lexsort((lowest, -sizes))
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.repeat(np.argsort(rank)[comp], length)

    members = coords[np.argsort(new_id, kind="stable")]
    return ComponentLabeling(members, sizes[rank], dv)


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
