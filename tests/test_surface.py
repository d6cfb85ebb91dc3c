from __future__ import annotations

import numpy as np
import pytest

from brainvqa.errors import GeometryError
from brainvqa.surface import (
    CORNER_OFFSETS,
    EDGE_CORNERS,
    SurfaceMesh,
    case_area,
    cell_triangles,
    marching_cubes,
    surface_area,
    triangle_areas,
    write_off,
)
from conftest import random_blob
from geometry_helpers import is_closed, is_orientable, mesh_area, single_voxel_mesh


class TestMeshArea:
    def test_unit_right_triangle(self):
        mesh = SurfaceMesh(
            vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
            triangles=np.array([[0, 1, 2]]),
        )
        assert mesh_area(mesh) == pytest.approx(0.5)

    def test_unit_square_two_triangles(self):
        mesh = SurfaceMesh(
            vertices=np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float),
            triangles=np.array([[0, 1, 2], [0, 2, 3]]),
        )
        assert mesh_area(mesh) == pytest.approx(1.0)

    def test_regular_tetrahedron_edge_one(self):
        verts = np.array(
            [
                [0, 0, 0],
                [1, 0, 0],
                [0.5, np.sqrt(3) / 2, 0],
                [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3],
            ]
        )
        tris = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 3]])
        assert mesh_area(SurfaceMesh(verts, tris)) == pytest.approx(np.sqrt(3), abs=1e-12)


class TestSurfaceArea:
    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.0, 1.3), (2.0, 0.5, 0.25)])
    def test_equals_the_mesh_area(self, spacing):
        for seed in range(20):
            mask = random_blob(seed, dims=(7, 9, 8), density=0.4)
            if not mask.any():
                continue
            mesh = mesh_area(marching_cubes(mask, spacing))
            assert surface_area(mask, spacing) == pytest.approx(mesh, rel=1e-12, abs=0)

    def test_single_voxel_is_the_octahedron(self):
        want = mesh_area(single_voxel_mesh((0, 0, 0), (1, 2, 3)))
        assert surface_area(np.ones((1, 1, 1)), (1, 2, 3)) == pytest.approx(want, rel=1e-15)

    def test_case_areas(self):
        areas = case_area((1.0, 1.0, 1.0))
        assert areas.shape == (256,)
        assert areas[0] == areas[255] == 0.0
        assert areas[1] == pytest.approx(np.sqrt(3) / 8)  # one corner cut off
        assert areas[3] == pytest.approx(np.sqrt(2) / 2)  # one edge: a slanted rectangle
        assert areas[15] == pytest.approx(1.0)  # one face: the mid-plane square
        assert (areas[1:255] > 0).all()

    def test_empty_mask_has_no_area(self):
        assert surface_area(np.zeros((2, 3, 4))) == 0.0

    def test_rejects_non_3d(self):
        with pytest.raises(GeometryError):
            surface_area(np.ones((3, 3)))


class TestMarchingCubes:
    def test_single_voxel_octahedron(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        mesh = marching_cubes(m)
        area = mesh_area(mesh)
        assert len(mesh.triangles) == 8
        # octahedron of edge sqrt(1/2): area sqrt(3), inside the stated band
        assert area == pytest.approx(np.sqrt(3), abs=1e-12)
        assert 1.5 <= area <= 6.0
        assert is_closed(mesh) and is_orientable(mesh)

    def test_single_voxel_matches_analytic_fast_path(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        assert mesh_area(marching_cubes(m, (1, 2, 3))) == pytest.approx(
            mesh_area(single_voxel_mesh((1, 1, 1), (1, 2, 3))), abs=1e-12
        )

    def test_solid_cube_cuts_corners(self):
        m = np.zeros((4, 4, 4))
        m[1:3, 1:3, 1:3] = 1
        area = mesh_area(marching_cubes(m))
        assert area < 24.0  # face-counting oracle for the 2x2x2 voxel block

    def test_sphere_area_matches_reference_bias(self, sphere10):
        """The binary-mask iso-surface overestimates the analytic sphere.

        Both this implementation and the standard library extractor produce
        ~9% over 4*pi*r^2 at r=10; equality with the analytic value is not
        achievable from binary input (see the acceptance suite).
        """
        area = mesh_area(marching_cubes(sphere10))
        analytic = 4 * np.pi * 100
        assert area == pytest.approx(1372.04, abs=0.5)
        assert abs(area - analytic) / analytic < 0.12

    def test_sphere_area_matches_skimage_exactly(self, sphere10):
        skimage = pytest.importorskip("skimage.measure")
        verts, faces, _, _ = skimage.marching_cubes(np.pad(sphere10, 1), level=0.5)
        reference = float(skimage.mesh_surface_area(verts, faces))
        mine = mesh_area(marching_cubes(sphere10))
        assert mine == pytest.approx(reference, rel=1e-5)

    def test_spacing_scales_vertices(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        a1 = mesh_area(marching_cubes(m, (1, 1, 1)))
        a2 = mesh_area(marching_cubes(m, (2, 2, 2)))
        assert a2 == pytest.approx(4 * a1)

    def test_empty_component_is_error(self):
        with pytest.raises(GeometryError):
            marching_cubes(np.zeros((3, 3, 3)))

    @pytest.mark.parametrize(
        "second", [(2, 2, 1), (2, 2, 2), (2, 1, 2), (1, 2, 2)]
    )
    def test_diagonal_pairs_closed(self, second):
        m = np.zeros((4, 4, 4))
        m[1, 1, 1] = 1
        m[second] = 1
        mesh = marching_cubes(m)
        assert is_closed(mesh)
        assert is_orientable(mesh)

    def test_all_two_by_two_block_patterns_closed(self):
        """All 256 voxel patterns of a 2x2x2 block, meshed with padding."""
        for pattern in range(1, 256):
            m = np.zeros((4, 4, 4))
            for bit in range(8):
                if pattern >> bit & 1:
                    m[1 + (bit & 1), 1 + (bit >> 1 & 1), 1 + (bit >> 2 & 1)] = 1
            mesh = marching_cubes(m)
            assert is_closed(mesh), f"pattern {pattern} not closed"
            assert is_orientable(mesh), f"pattern {pattern} not orientable"

    def test_random_blobs_closed(self):
        for seed in range(30):
            mesh = marching_cubes(random_blob(seed, dims=(12, 12, 12), density=0.4))
            assert is_closed(mesh)
            areas = triangle_areas(mesh)
            assert areas.min() > 0.0


class TestTableAudit:
    """Structural checks of the 256-case tables themselves."""

    def test_edge_table_matches_triangle_table(self):
        from brainvqa.mc_tables import EDGE_TABLE

        for case in range(256):
            referenced = {e for tri in cell_triangles(case) for e in tri}
            from_edge_table = {e for e in range(12) if EDGE_TABLE[case] >> e & 1}
            assert referenced == from_edge_table, f"case {case}"

    @staticmethod
    def _face_of_edge_pair(ea: int, eb: int):
        """The cube face (axis, side) containing both edges, if any."""
        for axis in range(3):
            for side in (0, 1):
                def on_face(e):
                    a, b = EDGE_CORNERS[e]
                    return (
                        CORNER_OFFSETS[a][axis] == side and CORNER_OFFSETS[b][axis] == side
                    )

                if on_face(ea) and on_face(eb):
                    return axis, side
        return None

    def test_every_case_is_internally_closed(self):
        """Within one cell, every triangle edge either pairs up with another
        triangle in the same cell or lies on a cell face (where the neighbor
        completes it)."""
        for case in range(256):
            counts = {}
            for tri in cell_triangles(case):
                for k in range(3):
                    e = tuple(sorted((tri[k], tri[(k + 1) % 3])))
                    counts[e] = counts.get(e, 0) + 1
            for (ea, eb), n in counts.items():
                on_face = self._face_of_edge_pair(ea, eb) is not None
                assert n == 2 or (n == 1 and on_face), (
                    f"case {case}: edge {(ea, eb)} appears {n}x off-face"
                )

    def test_face_segments_depend_only_on_face_pattern(self):
        """Neighboring cells see the same segments on a shared face, which is
        what makes the full mesh crack-free for binary data."""
        by_pattern: dict[tuple, set] = {}
        for case in range(256):
            for axis in range(3):
                for side in (0, 1):
                    corners = [
                        c for c in range(8) if CORNER_OFFSETS[c][axis] == side
                    ]
                    pattern = tuple(
                        sorted(
                            tuple(np.delete(CORNER_OFFSETS[c], axis))
                            for c in corners
                            if case >> c & 1
                        )
                    )
                    segments = set()
                    for tri in cell_triangles(case):
                        for k in range(3):
                            ea, eb = tri[k], tri[(k + 1) % 3]
                            face = self._face_of_edge_pair(ea, eb)
                            if face == (axis, side):
                                mids = []
                                for e in (ea, eb):
                                    a, b = EDGE_CORNERS[e]
                                    mid = (CORNER_OFFSETS[a] + CORNER_OFFSETS[b]) / 2.0
                                    mids.append(tuple(np.delete(mid, axis)))
                                segments.add(tuple(sorted(mids)))
                    key = pattern
                    if key in by_pattern:
                        assert by_pattern[key] == segments, (
                            f"case {case} face ({axis},{side}): inconsistent segments"
                        )
                    else:
                        by_pattern[key] = segments


class TestOffWriter:
    def test_round_trippable_text(self, tmp_path):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        mesh = marching_cubes(m)
        path = tmp_path / "mesh.off"
        write_off(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "OFF"
        nv, nf, _ = map(int, lines[1].split())
        assert nv == len(mesh.vertices) and nf == len(mesh.triangles)
        assert len(lines) == 2 + nv + nf

    @staticmethod
    def reference_off_text(mesh: SurfaceMesh) -> str:
        """The original per-row f-string formatter."""
        lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.triangles)} 0"]
        lines += [f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}" for v in mesh.vertices]
        lines += [f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("scale,shift", [(1.0, 0.0), (-0.37, 1e-3), (1.3e7, -4.5e6),
                                             (1e-9, -1.0), (np.pi, -2.5e-300)])
    def test_bytes_equal_the_per_row_formatter(self, tmp_path, scale, shift):
        mesh = marching_cubes(random_blob(3, dims=(9, 8, 7)))
        mesh.vertices = mesh.vertices * scale + shift
        mesh.vertices[0] = (-0.0, 123456789.123, -1e-12)
        path = tmp_path / "mesh.off"
        write_off(mesh, path)
        assert path.read_bytes() == self.reference_off_text(mesh).encode("utf-8")

    def test_empty_mesh(self, tmp_path):
        mesh = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        write_off(mesh, tmp_path / "empty.off")
        assert (tmp_path / "empty.off").read_text() == self.reference_off_text(mesh)
