"""Array quickhull and the exact voxel hull volume against independent oracles.

``reference_quickhull`` is the original dict-and-loop implementation: faces in
a dict, outside points assigned one at a time, visible faces found by a stack
walk over an edge map rebuilt for every apex.  It stays here as the reference
that ``quickhull`` must agree with, next to ``scipy.spatial.ConvexHull``.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainvqa.errors import DegenerateHullError
from brainvqa.hull import _corner_candidates, quickhull, voxel_hull_volume
from conftest import random_blob
from geometry_helpers import voxel_corner_points

scipy_spatial = pytest.importorskip("scipy.spatial")


# ---------------------------------------------------------------------------
# Reference: the original quickhull


def reference_quickhull(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pts = np.unique(pts, axis=0)
    if pts.shape[0] < 4:
        raise DegenerateHullError(f"need at least 4 distinct points, got {pts.shape[0]}")
    scale = float(np.abs(pts).max())
    eps = 1e-9 * max(scale, 1.0)

    simplex = _initial_simplex(pts, eps)
    interior = pts[simplex].mean(axis=0)

    i0, i1, i2, i3 = simplex
    faces: dict[int, tuple[int, int, int]] = {}
    next_id = 0
    for tri in ((i0, i1, i2), (i0, i3, i1), (i1, i3, i2), (i2, i3, i0)):
        faces[next_id] = _orient_outward(tri, pts, interior)
        next_id += 1

    normals = {fid: _plane(pts, tri) for fid, tri in faces.items()}
    outside: dict[int, list[int]] = {fid: [] for fid in faces}
    unclaimed = [i for i in range(pts.shape[0]) if i not in set(simplex)]
    _assign(unclaimed, faces, normals, outside, pts, eps)

    pending = [fid for fid, lst in outside.items() if lst]
    while pending:
        fid = pending.pop()
        if fid not in faces or not outside.get(fid):
            continue
        cand = outside[fid]
        n, d = normals[fid]
        dists = pts[cand] @ n - d
        apex = cand[int(np.argmax(dists))]

        visible = _visible_faces(apex, fid, faces, normals, pts, eps)
        horizon = _horizon_edges(visible, faces)

        orphans: list[int] = []
        for vid in visible:
            orphans.extend(outside.pop(vid, []))
            del faces[vid]
            del normals[vid]
        orphans = [p for p in set(orphans) if p != apex]

        new_ids = []
        for a, b in horizon:
            tri = (a, b, apex)
            tri = _orient_outward(tri, pts, interior)
            faces[next_id] = tri
            normals[next_id] = _plane(pts, tri)
            outside[next_id] = []
            new_ids.append(next_id)
            next_id += 1
        _assign(orphans, {i: faces[i] for i in new_ids}, normals, outside, pts, eps)
        pending.extend(i for i in new_ids if outside[i])

    face_arr = np.array(list(faces.values()), dtype=np.int64)
    return face_arr, pts, interior


def _initial_simplex(pts: np.ndarray, eps: float) -> list[int]:
    lo = int(np.argmin(pts[:, 0]))
    hi = int(np.argmax(pts[:, 0]))
    if not np.any(np.abs(pts[lo] - pts[hi]) > eps):
        extremes = [int(np.argmin(pts[:, k])) for k in range(3)]
        extremes += [int(np.argmax(pts[:, k])) for k in range(3)]
        best = (lo, hi, -1.0)
        for i in extremes:
            for j in extremes:
                d = float(np.linalg.norm(pts[i] - pts[j]))
                if d > best[2]:
                    best = (i, j, d)
        lo, hi, dist = best
        if dist <= eps:
            raise DegenerateHullError("all points coincide")
    line = pts[hi] - pts[lo]
    rel = pts - pts[lo]
    cross = np.cross(rel, line)
    d_line = np.linalg.norm(cross, axis=1)
    third = int(np.argmax(d_line))
    if d_line[third] <= eps * max(np.linalg.norm(line), 1.0):
        raise DegenerateHullError("points are collinear")
    normal = np.cross(pts[third] - pts[lo], line)
    normal /= np.linalg.norm(normal)
    d_plane = np.abs(rel @ normal)
    fourth = int(np.argmax(d_plane))
    if d_plane[fourth] <= eps:
        raise DegenerateHullError("points are coplanar")
    return [lo, hi, third, fourth]


def _plane(pts: np.ndarray, tri: tuple[int, int, int]) -> tuple[np.ndarray, float]:
    a, b, c = pts[tri[0]], pts[tri[1]], pts[tri[2]]
    n = np.cross(b - a, c - a)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        n = np.zeros(3)
    else:
        n = n / norm
    return n, float(n @ a)


def _orient_outward(
    tri: tuple[int, int, int], pts: np.ndarray, interior: np.ndarray
) -> tuple[int, int, int]:
    n, d = _plane(pts, tri)
    if n @ interior - d > 0:
        return (tri[0], tri[2], tri[1])
    return tri


def _assign(candidates, faces, normals, outside, pts, eps) -> None:
    for p in candidates:
        best_fid, best_dist = -1, eps
        for fid in faces:
            n, d = normals[fid]
            dist = float(pts[p] @ n - d)
            if dist > best_dist:
                best_fid, best_dist = fid, dist
        if best_fid >= 0:
            outside[best_fid].append(p)


def _visible_faces(apex, start, faces, normals, pts, eps) -> set[int]:
    visible = set()
    stack = [start]
    edge_owner = {}
    for fid, tri in faces.items():
        for k in range(3):
            edge_owner[(tri[k], tri[(k + 1) % 3])] = fid
    while stack:
        fid = stack.pop()
        if fid in visible:
            continue
        n, d = normals[fid]
        if float(pts[apex] @ n - d) > eps or fid == start:
            visible.add(fid)
            tri = faces[fid]
            for k in range(3):
                rev = (tri[(k + 1) % 3], tri[k])
                neighbor = edge_owner.get(rev)
                if neighbor is not None and neighbor not in visible:
                    stack.append(neighbor)
    return visible


def _horizon_edges(visible, faces) -> list[tuple[int, int]]:
    edges = []
    for fid in visible:
        tri = faces[fid]
        for k in range(3):
            edges.append((tri[k], tri[(k + 1) % 3]))
    edge_set = set(edges)
    return [e for e in edges if (e[1], e[0]) not in edge_set]


# ---------------------------------------------------------------------------
# Oracles


def sixfold_volume(faces: np.ndarray, pts: np.ndarray) -> int:
    """Six times the volume of a closed lattice polytope: exact int64 triple products."""
    lattice = pts.astype(np.int64)
    assert np.array_equal(lattice, pts)
    origin = lattice[faces[0, 0]]
    a, b, c = (lattice[faces[:, k]] - origin for k in range(3))
    return int(np.sum(a * np.cross(b, c)))


def doubled_corners(coords: np.ndarray) -> np.ndarray:
    """Every voxel corner on the doubled lattice, deduplicated."""
    return np.rint(voxel_corner_points(coords) * 2.0).astype(np.int64)


def assert_closed_and_oriented(faces: np.ndarray) -> None:
    directed = [(int(t[k]), int(t[(k + 1) % 3])) for t in faces for k in range(3)]
    assert len(set(directed)) == len(directed), "a directed edge is used twice"
    edges = set(directed)
    assert all((b, a) in edges for a, b in edges), "a hull edge has one face"


def as_rows(points: np.ndarray) -> set:
    return {tuple(int(v) for v in p) for p in points}


def check_voxel_hull(coords: np.ndarray, spacing) -> None:
    full = doubled_corners(coords)
    candidates = _corner_candidates(coords)
    assert candidates.dtype == np.int64
    faces, pts, _ = quickhull(candidates)
    assert_closed_and_oriented(faces)
    ref_faces, ref_pts, _ = reference_quickhull(full)
    sixfold = sixfold_volume(faces, pts)
    assert sixfold == sixfold_volume(ref_faces, ref_pts)

    sx, sy, sz = spacing
    assert voxel_hull_volume(coords, spacing) == sixfold * (sx * sy * sz) / 48.0
    oracle = scipy_spatial.ConvexHull(voxel_corner_points(coords, spacing))
    assert voxel_hull_volume(coords, spacing) == pytest.approx(oracle.volume, rel=1e-10)

    scipy_vertices = as_rows(full[oracle.vertices])
    assert scipy_vertices <= as_rows(pts[np.unique(faces)])
    assert as_rows(candidates) <= as_rows(full)
    assert scipy_vertices <= as_rows(candidates)


spacings = st.tuples(*[st.floats(0.25, 3.0, allow_nan=False, allow_infinity=False)] * 3)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def lattice_clouds(draw):
    """Voxels scattered at any density in a box of up to 7 per side."""
    dims = draw(st.tuples(*[st.integers(1, 7)] * 3))
    rng = np.random.default_rng(draw(seeds))
    coords = np.argwhere(rng.random(dims) < draw(st.floats(0.05, 1.0)))
    return coords if len(coords) else np.zeros((1, 3), dtype=np.int64)


@st.composite
def needles(draw):
    """A straight run of voxels along one axis, one voxel thick."""
    axis, length = draw(st.integers(0, 2)), draw(st.integers(1, 12))
    coords = np.tile(np.array(draw(st.tuples(*[st.integers(-5, 5)] * 3))), (length, 1))
    coords[:, axis] += np.arange(length)
    return coords


@st.composite
def slabs(draw):
    """A one-voxel-thick plate with holes, normal to one axis."""
    axis = draw(st.integers(0, 2))
    dims = [draw(st.integers(1, 8)) for _ in range(3)]
    dims[axis] = 1
    rng = np.random.default_rng(draw(seeds))
    coords = np.argwhere(rng.random(dims) < draw(st.floats(0.2, 1.0)))
    return coords if len(coords) else np.zeros((1, 3), dtype=np.int64)


class TestVoxelHullAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(lattice_clouds(), spacings)
    def test_lattice_clouds(self, coords, spacing):
        check_voxel_hull(coords, spacing)

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(*[st.integers(-300, 300)] * 3), spacings)
    def test_single_voxels(self, where, spacing):
        check_voxel_hull(np.array([where]), spacing)

    @settings(max_examples=30, deadline=None)
    @given(needles(), spacings)
    def test_needles(self, coords, spacing):
        check_voxel_hull(coords, spacing)

    @settings(max_examples=30, deadline=None)
    @given(slabs(), spacings)
    def test_thin_slabs(self, coords, spacing):
        check_voxel_hull(coords, spacing)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 0.5), spacings)
    def test_random_blobs(self, seed, density, spacing):
        coords = np.argwhere(random_blob(seed, dims=(9, 9, 9), density=density))
        if len(coords):
            check_voxel_hull(coords, spacing)

    def test_large_lesion_prunes_to_its_boundary(self):
        g = np.mgrid[-14:15, -11:12, -9:10]
        semi = np.array([13.5, 10.2, 8.4])[:, None, None, None]
        coords = np.argwhere(((g / semi) ** 2).sum(axis=0) <= 1.0)
        assert len(_corner_candidates(coords)) < len(doubled_corners(coords)) // 4
        check_voxel_hull(coords, (1.0, 1.0, 1.0))


@st.composite
def flat_clouds(draw):
    """4 to 40 distinct-ish float points on one random plane or line."""
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(4, 40))
    origin = rng.normal(size=3) * 5
    u, v = rng.normal(size=(2, 3))
    s, t = rng.uniform(-3, 3, size=(2, n, 1))
    if draw(st.booleans()):
        return origin + s * u  # collinear
    return origin + s * u + t * v  # coplanar


class TestDegenerateInputs:
    @settings(max_examples=40, deadline=None)
    @given(flat_clouds())
    def test_flat_clouds_raise_in_both(self, pts):
        for hull in (quickhull, reference_quickhull):
            with pytest.raises(DegenerateHullError):
                hull(pts)

    @pytest.mark.parametrize(
        "pts",
        [
            np.zeros((3, 3)),
            np.zeros((10, 3)),
            np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]], dtype=float),
            np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.3, 0.7, 0]]),
        ],
    )
    def test_fixed_degenerate_sets(self, pts):
        for hull in (quickhull, reference_quickhull):
            with pytest.raises(DegenerateHullError):
                hull(pts)


class TestFloatCloudsAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(4, 120), st.floats(0.5, 10.0))
    def test_gaussian_clouds(self, seed, n, scale):
        pts = np.random.default_rng(seed).normal(size=(n, 3)) * scale
        faces, hull_pts, _ = quickhull(pts)
        assert_closed_and_oriented(faces)
        ref_faces, _, _ = reference_quickhull(pts)
        oracle = scipy_spatial.ConvexHull(pts)
        assert set(np.unique(faces)) == set(np.unique(ref_faces))
        assert set(map(tuple, hull_pts[np.unique(faces)])) == set(map(tuple, pts[oracle.vertices]))
