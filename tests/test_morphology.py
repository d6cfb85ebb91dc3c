from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from brainvqa.morphology import (
    NOT_AVAILABLE,
    SPREAD_CORE_SATELLITES,
    SPREAD_SCATTERED,
    SPREAD_SINGLE,
    ComponentLabeling,
    connected_components,
    spread_classify,
)
from conftest import random_blob


def bfs_components(mask: np.ndarray) -> list[set[tuple[int, int, int]]]:
    """Flood-fill oracle at 26-connectivity, independent of the union-find path."""
    dims = mask.shape
    seen = np.zeros(dims, dtype=bool)
    components = []
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ]
    for start in map(tuple, np.argwhere(mask != 0)):
        if seen[start]:
            continue
        group = set()
        queue = deque([start])
        seen[start] = True
        while queue:
            x, y, z = queue.popleft()
            group.add((x, y, z))
            for dx, dy, dz in offsets:
                nx, ny, nz = x + dx, y + dy, z + dz
                if 0 <= nx < dims[0] and 0 <= ny < dims[1] and 0 <= nz < dims[2]:
                    if mask[nx, ny, nz] and not seen[nx, ny, nz]:
                        seen[nx, ny, nz] = True
                        queue.append((nx, ny, nz))
        components.append(group)
    return components


def partition_of(labeling: ComponentLabeling) -> set[frozenset]:
    return {frozenset(map(tuple, coords)) for coords in labeling.component_coords}


class TestConnectedComponents:
    def test_single_voxel(self):
        m = np.zeros((8, 8, 8))
        m[2, 2, 2] = 1
        lab = connected_components(np.argwhere(m))
        assert lab.n_components == 1
        assert lab.core_fraction == 1.0
        assert lab.component_voxels == [1]

    def test_diagonal_voxels_are_connected(self):
        m = np.zeros((4, 4, 4))
        m[0, 0, 0] = 1
        m[1, 1, 1] = 1
        assert connected_components(np.argwhere(m)).n_components == 1

    def test_separated_voxels_two_components(self):
        m = np.zeros((4, 4, 4))
        m[0, 0, 0] = 1
        m[2, 2, 2] = 1
        lab = connected_components(np.argwhere(m))
        assert lab.n_components == 2
        assert lab.component_volumes == [1.0, 1.0]
        assert lab.core_fraction == pytest.approx(0.5)
        assert partition_of(lab) == {p for p in map(frozenset, bfs_components(m))}

    def test_empty_mask_is_empty_labeling(self):
        lab = connected_components(np.argwhere(np.zeros((3, 3, 3))))
        assert lab.n_components == 0
        assert lab.total_voxels == 0

    def test_ordering_decreasing_size_then_first_voxel(self):
        m = np.zeros((12, 4, 4))
        m[6:9, 0, 0] = 1  # 3 voxels, later in the grid
        m[0, 0, 0] = 1  # singleton, earliest linear index
        m[3, 3, 3] = 1  # singleton, later linear index
        lab = connected_components(np.argwhere(m))
        assert lab.component_voxels == [3, 1, 1]
        assert tuple(lab.component_coords[1][0]) == (0, 0, 0)
        assert tuple(lab.component_coords[2][0]) == (3, 3, 3)
        assert lab.core_index == 0

    def test_matches_bfs_oracle_on_random_masks(self):
        for seed in range(40):
            m = random_blob(seed, dims=(16, 16, 16), density=0.3)
            mine = partition_of(connected_components(np.argwhere(m)))
            oracle = {frozenset(g) for g in bfs_components(m)}
            assert mine == oracle

    def test_corner_voxels_no_out_of_bounds(self):
        m = np.zeros((4, 4, 4))
        for corner in np.ndindex(2, 2, 2):
            m[tuple(3 * c for c in corner)] = 1
        lab = connected_components(np.argwhere(m))
        assert lab.n_components == 8

    def test_adding_adjacent_voxel_never_splits(self):
        for seed in range(10):
            m = random_blob(seed + 100, dims=(10, 10, 10), density=0.2)
            base = connected_components(np.argwhere(m)).n_components
            coords = np.argwhere(m)
            if len(coords) == 0:
                continue
            x, y, z = coords[0]
            grown = m.copy()
            nx = min(x + 1, 9)
            grown[nx, y, z] = 1
            assert connected_components(np.argwhere(grown)).n_components <= base

    def test_component_volumes_scale_with_spacing(self):
        m = np.zeros((4, 4, 4))
        m[0:2, 0, 0] = 1
        lab = connected_components(np.argwhere(m), spacing=(2.0, 1.0, 0.5))
        assert lab.component_volumes == [2.0]

    def test_voxel_counts_sum(self):
        m = random_blob(7, dims=(12, 12, 12), density=0.4)
        lab = connected_components(np.argwhere(m))
        assert lab.total_voxels == int(m.sum())


class TestSpreadClassify:
    def test_empty_is_na(self):
        lab = connected_components(np.argwhere(np.zeros((3, 3, 3))))
        assert spread_classify(lab).category == NOT_AVAILABLE

    def test_single_lesion(self):
        m = np.zeros((5, 5, 5))
        m[1:3, 1:3, 1:3] = 1
        assert spread_classify(connected_components(np.argwhere(m))).category == SPREAD_SINGLE

    def test_core_with_satellites_at_080(self):
        m = np.zeros((24, 6, 6))
        m[0:4, 0:4, 0:5] = 1  # 80 voxels
        m[8:11, 0:5, 0:1] = 1  # 15
        m[14:15, 0:5, 0:1] = 1  # 5
        desc = spread_classify(connected_components(np.argwhere(m)))
        assert desc.n_components == 3
        assert desc.core_fraction == pytest.approx(0.8)
        assert desc.category == SPREAD_CORE_SATELLITES

    def test_scattered_at_060(self):
        m = np.zeros((20, 6, 6))
        m[0:3, 0:4, 0:5] = 1  # 60 voxels
        m[6:8, 0:4, 0:5] = 1  # 40 voxels
        desc = spread_classify(connected_components(np.argwhere(m)))
        assert desc.core_fraction == pytest.approx(0.6)
        assert desc.category == SPREAD_SCATTERED

    @pytest.mark.parametrize("n_components", [1, 2, 5])
    @pytest.mark.parametrize("f_core", [0.69, 0.70, 0.71])
    def test_threshold_case_table(self, n_components, f_core):
        lab = ComponentLabeling(
            component_voxels=[100] * n_components,
            component_volumes=_volumes(n_components, f_core),
            component_coords=[np.zeros((1, 3), dtype=np.int64)] * n_components,
            voxel_volume_mm3=1.0,
        )
        category = spread_classify(lab).category
        if n_components == 1:
            assert category == SPREAD_SINGLE
        elif f_core >= 0.7:
            assert category == SPREAD_CORE_SATELLITES
        else:
            assert category == SPREAD_SCATTERED


def _volumes(n: int, f_core: float) -> list[float]:
    if n == 1:
        return [100.0]
    rest = 100.0 * (1.0 - f_core) / (n - 1)
    return [100.0 * f_core] + [rest] * (n - 1)
