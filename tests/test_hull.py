from __future__ import annotations

import numpy as np
import pytest

from brainvqa.errors import DegenerateHullError
from brainvqa.rng import stream
from conftest import random_blob
from geometry_helpers import convex_hull_volume, float_quickhull, voxel_corner_points


def unit_cube_corners() -> np.ndarray:
    return np.array(list(np.ndindex(2, 2, 2)), dtype=float)


class TestAnalyticVolumes:
    def test_unit_cube(self):
        assert convex_hull_volume(unit_cube_corners()) == pytest.approx(1.0, abs=1e-9)

    def test_interior_points_do_not_change_hull(self):
        pts = np.vstack([unit_cube_corners(), [[0.5, 0.5, 0.5]], [[0.25, 0.5, 0.75]]])
        assert convex_hull_volume(pts) == pytest.approx(1.0, abs=1e-9)

    def test_regular_tetrahedron_edge_one(self):
        pts = np.array(
            [
                [0, 0, 0],
                [1, 0, 0],
                [0.5, np.sqrt(3) / 2, 0],
                [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3],
            ]
        )
        assert convex_hull_volume(pts) == pytest.approx(1 / (6 * np.sqrt(2)), abs=1e-9)

    def test_scaled_cube(self):
        assert convex_hull_volume(unit_cube_corners() * 3.0) == pytest.approx(27.0, abs=1e-9)


class TestDegenerate:
    def test_too_few_points(self):
        with pytest.raises(DegenerateHullError):
            convex_hull_volume(np.zeros((3, 3)))

    def test_collinear(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]], dtype=float)
        with pytest.raises(DegenerateHullError):
            convex_hull_volume(pts)

    def test_coplanar(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.3, 0.7, 0]])
        with pytest.raises(DegenerateHullError):
            convex_hull_volume(pts)

    def test_duplicates_collapse(self):
        with pytest.raises(DegenerateHullError):
            convex_hull_volume(np.zeros((10, 3)))


class TestHullFacets:
    def test_facets_watertight_orientation(self):
        rng = stream(5, "hullmesh")
        pts = rng.normal(size=(40, 3))
        faces, _, _ = float_quickhull(pts)
        directed = set()
        for tri in faces:
            for k in range(3):
                edge = (int(tri[k]), int(tri[(k + 1) % 3]))
                assert edge not in directed
                directed.add(edge)
        for a, b in list(directed):
            assert (b, a) in directed


class TestAgainstScipy:
    def test_random_clouds(self):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        rng = stream(1, "clouds")
        for _ in range(30):
            n = int(rng.integers(4, 150))
            pts = rng.normal(size=(n, 3)) * float(rng.uniform(0.5, 10.0))
            try:
                mine = convex_hull_volume(pts)
            except DegenerateHullError:
                continue
            assert mine == pytest.approx(scipy_spatial.ConvexHull(pts).volume, rel=1e-10)

    def test_lattice_corner_clouds(self):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        for seed in range(15):
            m = random_blob(seed, dims=(8, 8, 8), density=0.25)
            coords = np.argwhere(m)
            if len(coords) == 0:
                continue
            pts = voxel_corner_points(coords)
            mine = convex_hull_volume(pts)
            assert mine == pytest.approx(scipy_spatial.ConvexHull(pts).volume, rel=1e-10)


class TestVoxelCorners:
    def test_single_voxel_cube(self):
        pts = voxel_corner_points(np.array([[3, 4, 5]]), (1.0, 1.0, 2.0))
        assert pts.shape == (8, 3)
        assert convex_hull_volume(pts) == pytest.approx(2.0, abs=1e-12)

    def test_hull_dominates_voxel_volume(self):
        for seed in range(25):
            m = random_blob(seed + 50, dims=(10, 10, 10), density=0.2)
            coords = np.argwhere(m)
            if len(coords) == 0:
                continue
            hull = convex_hull_volume(voxel_corner_points(coords))
            assert hull >= len(coords) * (1.0 - 1e-6)

    def test_corners_deduplicated(self):
        coords = np.array([[0, 0, 0], [1, 0, 0]])
        pts = voxel_corner_points(coords)
        assert pts.shape == (12, 3)  # 16 raw corners, 4 shared
