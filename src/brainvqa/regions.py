"""Relative lesion volume binning and atlas-based region assignment.

Both take a label from the study's one label split
(:meth:`nifti.LabelMask.label_coords`): its voxel count, or its voxel
coordinates on the atlas's RAS grid.  The atlas is pluggable (any label
volume plus an integer-to-region-name map over the fixed nine-name vocabulary).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GeometryError
from .morphology import NOT_AVAILABLE
from .nifti import LabelMask

REGION_NAMES = (
    "frontal",
    "parietal",
    "occipital",
    "temporal",
    "limbic",
    "insula",
    "subcortical",
    "cerebellum",
    "brainstem",
)

VOLUME_BINS = ("<1%", "1-5%", "5-10%", "10-25%", "25-50%", "50-75%")
# Half-open bin edges; the boundary belongs to the upper bin (0.01 -> "1-5%").
_BIN_EDGES = (0.01, 0.05, 0.10, 0.25, 0.50)
MAX_BINNED_FRACTION = 0.75

DEFAULT_MIN_OVERLAP_VOXELS = 10


@dataclass(frozen=True)
class VolumeBin:
    bin: str
    raw_fraction: float
    clamped: bool = False


@dataclass(frozen=True)
class RegionAssignment:
    """Regions ordered by descending overlap count, ties alphabetical."""

    regions: tuple[str, ...]
    overlap_counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Atlas:
    labels: LabelMask
    region_map: dict[int, str]
    provenance: str = ""

    def __post_init__(self):
        bad = {name for name in self.region_map.values() if name not in REGION_NAMES}
        if bad:
            raise ConfigError(f"region map uses unknown region names: {sorted(bad)}")
        unmapped = self.labels.label_set - set(self.region_map)
        if unmapped:
            raise ConfigError(f"atlas labels {sorted(unmapped)} missing from region map")


def load_region_map(path) -> dict[int, str]:
    """Read an integer-label -> region-name UTF-8 JSON map."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return {int(k): str(v) for k, v in json.load(fh).items()}
    except (AttributeError, TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(
            f"region map {path} must be UTF-8 JSON mapping integer labels to names: {exc}"
        ) from None


def relative_volume(voxels: int, brain_voxels: int) -> float:
    """A label's voxel count divided by the count of nonzero brain voxels."""
    if brain_voxels == 0:
        raise GeometryError("brain volume has no nonzero voxels; fraction undefined")
    return float(voxels) / brain_voxels


def volume_bin(fraction: float) -> VolumeBin:
    """Bin a fraction in [0, 1]; above 0.75 clamps with a warning flag."""
    if not 0.0 <= fraction <= 1.0:
        raise GeometryError(f"fraction {fraction} outside [0, 1]")
    if fraction > MAX_BINNED_FRACTION:
        return VolumeBin(VOLUME_BINS[-1], fraction, clamped=True)
    for edge, name in zip(_BIN_EDGES, VOLUME_BINS):
        if fraction < edge:
            return VolumeBin(name, fraction)
    return VolumeBin(VOLUME_BINS[-1], fraction)


def region_overlap(
    coords: np.ndarray,
    atlas: Atlas,
    min_overlap_voxels: int = DEFAULT_MIN_OVERLAP_VOXELS,
) -> RegionAssignment | None:
    """Regions whose atlas labels hold >= the voxel floor of the (n, 3) voxels.

    Returns None (N/A) for no voxels.  Ordering is descending overlap count
    with alphabetical ties so rendered text is deterministic.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if coords.shape[0] == 0:
        return None
    dims = atlas.labels.volume.header.dims
    if coords.min() < 0 or (coords.max(axis=0) >= dims).any():
        raise GeometryError(f"voxel coordinates fall outside the atlas grid {dims}")
    overlapped = atlas.labels.volume.data[tuple(coords.T)]
    counts: dict[str, int] = {}
    for label, count in zip(*np.unique(overlapped[overlapped != 0], return_counts=True)):
        name = atlas.region_map.get(int(label))
        if name is not None:
            counts[name] = counts.get(name, 0) + int(count)
    kept = {name: c for name, c in counts.items() if c >= min_overlap_voxels}
    ordered = tuple(sorted(kept, key=lambda name: (-kept[name], name)))
    return RegionAssignment(regions=ordered, overlap_counts=kept)


def region_list_text(regions: tuple[str, ...] | None) -> str:
    """Comma-and rendering: 'frontal, parietal and temporal'; empty -> 'N/A'."""
    if regions is None or len(regions) == 0:
        return NOT_AVAILABLE
    if len(regions) == 1:
        return regions[0]
    return ", ".join(regions[:-1]) + " and " + regions[-1]
