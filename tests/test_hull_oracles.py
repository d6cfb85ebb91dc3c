"""The lockstep integer quickhull and the exact voxel hull volume against oracles.

The oracles are ``scipy.spatial.ConvexHull`` and the two float quickhulls of
``geometry_helpers``: ``reference_quickhull`` (dict and loop) and
``float_quickhull`` (array code with an ``eps``, one hull per call).  The float
contract (Gaussian clouds, flat clouds raising) is checked on those two; the
lattice contract of the descriptor path on ``hull.quickhull`` itself, one
component at a time and many in one call.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainvqa import hull
from brainvqa.errors import DegenerateHullError
from brainvqa.hull import _corner_candidates, quickhull, voxel_hull_volumes
from brainvqa.morphology import connected_components
from conftest import brats_grid_seg, random_blob
from geometry_helpers import float_quickhull, ragged, reference_quickhull, voxel_corner_points

scipy_spatial = pytest.importorskip("scipy.spatial")


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


def corner_candidates(coords: np.ndarray) -> np.ndarray:
    """The pruned doubled-lattice corners of one voxel set, as (m, 3) rows."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    candidates = _corner_candidates(np.column_stack([np.zeros(len(coords), np.int64), coords]))
    assert candidates.dtype == np.int64
    return candidates[:, 1:]


def check_voxel_hull(coords: np.ndarray, spacing) -> None:
    full = doubled_corners(coords)
    candidates = corner_candidates(coords)
    faces = quickhull(candidates, np.zeros(len(candidates), dtype=np.int64))
    assert_closed_and_oriented(faces)
    ref_faces, ref_pts, _ = reference_quickhull(full)
    sixfold = sixfold_volume(faces, candidates)
    assert sixfold == sixfold_volume(ref_faces, ref_pts)

    sx, sy, sz = spacing
    (volume,) = voxel_hull_volumes(coords, [len(coords)], spacing)
    assert volume == sixfold * (sx * sy * sz) / 48.0
    oracle = scipy_spatial.ConvexHull(voxel_corner_points(coords, spacing))
    assert volume == pytest.approx(oracle.volume, rel=1e-10)

    scipy_vertices = as_rows(full[oracle.vertices])
    assert scipy_vertices <= as_rows(candidates[np.unique(faces)])
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
        assert len(corner_candidates(coords)) < len(doubled_corners(coords)) // 4
        check_voxel_hull(coords, (1.0, 1.0, 1.0))


@st.composite
def single_voxels(draw):
    return np.array([draw(st.tuples(*[st.integers(-300, 300)] * 3))])


@st.composite
def blobs(draw):
    """Random 9^3 blobs, any connectivity."""
    seed, density = draw(st.integers(0, 10_000)), draw(st.floats(0.1, 0.5))
    coords = np.argwhere(random_blob(seed, dims=(9, 9, 9), density=density))
    return coords if len(coords) else np.zeros((1, 3), dtype=np.int64)


mixed_components = st.one_of(lattice_clouds(), needles(), slabs(), single_voxels(), blobs())


class TestLockstepBatches:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(mixed_components, min_size=1, max_size=8), st.randoms(use_true_random=False))
    def test_each_component_as_reference_alone_and_in_any_order(self, batch, rnd):
        candidates = [corner_candidates(c) for c in batch]
        points = np.concatenate(candidates)
        group = np.repeat(np.arange(len(batch)), [len(c) for c in candidates])
        rows = list(range(len(points)))
        rnd.shuffle(rows)  # any point order, one call
        points, group = points[rows], group[rows]
        faces = quickhull(points, group)
        face_group = group[faces[:, 0]]
        assert (group[faces] == face_group[:, None]).all()
        for k, coords in enumerate(batch):
            own = faces[face_group == k]
            assert_closed_and_oriented(own)
            ref_faces, ref_pts, _ = reference_quickhull(doubled_corners(coords))
            assert sixfold_volume(own, points) == sixfold_volume(ref_faces, ref_pts)

        volumes = voxel_hull_volumes(*ragged(batch))
        assert volumes == [voxel_hull_volumes(*ragged([coords]))[0] for coords in batch]
        order = list(range(len(batch)))
        rnd.shuffle(order)
        shuffled = ragged([batch[k] for k in order])
        assert voxel_hull_volumes(*shuffled) == [volumes[k] for k in order]

    @pytest.mark.parametrize(
        "flat",
        [
            np.array([[4, 4, 4]]),
            np.array([[0, 0, 0], [2, 2, 2], [4, 4, 4], [8, 8, 8]]),
            np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0]]),
            np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0], [6, 4, 0]]),
        ],
    )
    def test_a_flat_group_raises(self, flat):
        cube = corner_candidates(np.array([[1, 1, 1]]))
        points = np.concatenate([cube, flat])
        group = np.repeat([7, 3], [len(cube), len(flat)])
        with pytest.raises(DegenerateHullError):
            quickhull(points, group)


class TestInputOrder:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.05, 0.4), st.randoms(use_true_random=False))
    def test_rows_in_any_order_give_the_c_order_volumes(self, seed, density, rnd):
        """Rows permuted within each component, and the components reordered,
        give exactly the volumes of the C-order rows, reordered alike."""
        labeling = connected_components(np.argwhere(random_blob(seed, (10, 10, 10), density)))
        if not labeling.n_components:
            return
        volumes = voxel_hull_volumes(labeling.coords, labeling.sizes)
        blocks = np.split(labeling.coords, np.cumsum(labeling.sizes)[:-1])
        order = list(range(len(blocks)))
        rnd.shuffle(order)
        shuffled = []
        for k in order:
            rows = list(range(len(blocks[k])))
            rnd.shuffle(rows)
            shuffled.append(blocks[k][rows])
        assert voxel_hull_volumes(*ragged(shuffled)) == [volumes[k] for k in order]


def test_rounds_take_many_apexes_each(monkeypatch):
    """A BraTS-size lesion's hull takes far fewer rounds than it has
    vertices; one apex per round would take a round per vertex."""
    labeling = connected_components(np.argwhere(brats_grid_seg(0) == 3))
    candidates = corner_candidates(labeling.coords[:labeling.sizes[0]])
    rounds = []
    insert_cones = hull._insert_cones

    def counted(*args):
        rounds.append(len(rounds))
        return insert_cones(*args)

    monkeypatch.setattr(hull, "_insert_cones", counted)
    faces = quickhull(candidates, np.zeros(len(candidates), dtype=np.int64))
    assert_closed_and_oriented(faces)
    vertices = len(np.unique(faces))
    assert labeling.sizes[0] >= 35_000 and vertices >= 400
    assert 10 * len(rounds) <= vertices, (len(rounds), vertices)


def check_closed_form(coords: np.ndarray, spacing, voxel_units: int) -> None:
    """Hull volume of ``voxel_units`` voxel volumes: exactly, and as scipy's to 1e-10."""
    sx, sy, sz = spacing
    (volume,) = voxel_hull_volumes(coords, [len(coords)], spacing)
    assert volume == 48 * voxel_units * (sx * sy * sz) / 48.0
    oracle = scipy_spatial.ConvexHull(voxel_corner_points(coords, spacing))
    assert volume == pytest.approx(oracle.volume, rel=1e-10)


class TestComponentsWiderThanThreeHundredVoxels:
    def test_axis_needle(self):
        coords = np.zeros((700, 3), dtype=np.int64)
        coords[:, 0] = np.arange(700)
        check_closed_form(coords, (0.9, 1.1, 1.3), 700)

    def test_diagonal_staircase(self):
        # Steps (i, i) and (i + 1, i) in one slice: the hull's cross-section is
        # the hexagon (0,0) (2,0) (n+1,n-1) (n+1,n) (n-1,n) (0,1) in voxel
        # corner units, of area 3n - 1.
        n = 650
        i = np.arange(n)
        coords = np.concatenate([np.column_stack([i, i, 0 * i]),
                                 np.column_stack([i + 1, i, 0 * i])])
        check_closed_form(coords, (1.0, 0.8, 1.5), 3 * n - 1)


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
        for hull in (float_quickhull, reference_quickhull):
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
        for hull in (float_quickhull, reference_quickhull):
            with pytest.raises(DegenerateHullError):
                hull(pts)


class TestFloatCloudsAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(4, 120), st.floats(0.5, 10.0))
    def test_gaussian_clouds(self, seed, n, scale):
        pts = np.random.default_rng(seed).normal(size=(n, 3)) * scale
        faces, hull_pts, _ = float_quickhull(pts)
        assert_closed_and_oriented(faces)
        ref_faces, _, _ = reference_quickhull(pts)
        oracle = scipy_spatial.ConvexHull(pts)
        assert set(np.unique(faces)) == set(np.unique(ref_faces))
        assert set(map(tuple, hull_pts[np.unique(faces)])) == set(map(tuple, pts[oracle.vertices]))
