from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from brainvqa.errors import GeometryError
from brainvqa.morphology import ComponentLabeling, connected_components
from brainvqa.shape import (
    SHAPE_ELONGATED,
    SHAPE_FOCUS,
    SHAPE_IRREGULAR,
    SHAPE_OVAL,
    SHAPE_ROUND,
    ShapeMetrics,
    aggregate_metrics,
    component_shape_metrics,
    shape_classify,
    shape_components,
    shape_metrics,
)
from conftest import digitized_ellipsoid, random_blob
from geometry_helpers import describe, pca_axes, ragged, reference_shape_metrics, split_components

SPACINGS = [(1.0, 1.0, 1.0), (1.0, 1.0, 1.3), (0.9, 1.1, 1.3)]


def stamped(shape, stamps) -> np.ndarray:
    """A label grid with ``(label, lo, hi)`` boxes painted in order."""
    seg = np.zeros(shape, dtype=np.int8)
    for label, lo, hi in stamps:
        seg[tuple(slice(a, b) for a, b in zip(lo, hi))] = label
    return seg


# Single voxels, a pair, a rod and a plate (zero minor axes), and labels that
# touch across a face and along an edge.
SMALL_CASES = stamped((7, 7, 6), [
    (1, (0, 0, 0), (1, 1, 1)), (1, (3, 3, 3), (4, 4, 4)), (1, (5, 0, 0), (7, 1, 1)),
    (2, (0, 3, 0), (1, 7, 1)), (2, (2, 0, 2), (3, 1, 3)), (3, (1, 4, 2), (4, 7, 3)),
    (3, (4, 3, 4), (5, 4, 5)), (1, (5, 4, 4), (7, 6, 6)), (2, (2, 4, 3), (3, 5, 4)),
])


def metrics_with(phi: float, elongation: float) -> ShapeMetrics:
    return ShapeMetrics(
        volume=1000.0,
        area=500.0,
        sphericity=phi,
        compactness=0.5,
        eigenvalues=(3.0, 2.0, 1.0),
        elongation=elongation,
        flatness=0.7,
        solidity=0.9,
    )


class TestPcaAxes:
    def test_single_voxel_zero_before_regularization(self):
        assert pca_axes(np.array([[5, 5, 5]])) == (0.0, 0.0, 0.0)

    def test_collinear_three_voxels(self):
        lam = pca_axes(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]]))
        assert lam[0] == pytest.approx(2.0 / 3.0)  # variance of {0,1,2}, biased
        assert lam[1] == pytest.approx(0.0, abs=1e-12)
        assert lam[2] == pytest.approx(0.0, abs=1e-12)

    def test_axis_aligned_box_variances(self):
        a, b, c = 7, 5, 3
        coords = np.array(list(np.ndindex(a, b, c)))
        lam = pca_axes(coords)

        def uniform_var(n):  # biased variance of 0..n-1
            xs = np.arange(n)
            return float(((xs - xs.mean()) ** 2).mean())

        assert lam == pytest.approx((uniform_var(a), uniform_var(b), uniform_var(c)))

    def test_spacing_scales_eigenvalues(self):
        coords = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        lam = pca_axes(coords, spacing=(2.0, 1.0, 1.0))
        assert lam[0] == pytest.approx(4 * 2.0 / 3.0)


class TestShapeMetrics:
    def test_sphere_r10(self, sphere10):
        coords = np.argwhere(sphere10)
        m = shape_metrics(coords)
        # binary marching cubes overestimates area ~9%, so sphericity lands
        # near 0.91 (the reference extractor produces the same mesh)
        assert 0.90 <= m.sphericity <= 0.93
        assert m.elongation <= 1.05
        # corner-augmented hull extends half a voxel beyond centers: the
        # sphere's solidity sits near 0.85, not 1
        assert 0.82 <= m.solidity <= 0.88
        assert m.flatness >= 0.95
        assert m.volume == pytest.approx(coords.shape[0])
        assert m.compactness == pytest.approx(m.area / m.volume)

    def test_ellipsoid_elongation(self):
        ell = digitized_ellipsoid((30, 8, 8))
        m = shape_metrics(np.argwhere(ell))
        assert m.elongation == pytest.approx(30 / 8, rel=0.10)

    def test_rod_metrics(self):
        rod = np.zeros((3, 3, 22), dtype=np.uint8)
        rod[1, 1, 1:21] = 1
        m = shape_metrics(np.argwhere(rod))
        assert m.elongation > 2.5
        assert m.flatness == pytest.approx(1.0, abs=1e-9)  # regularized equal minors
        assert m.solidity == pytest.approx(1.0, abs=1e-6)

    def test_single_voxel_fast_path(self):
        m = shape_metrics(np.array([[4, 4, 4]]))
        assert m.volume == pytest.approx(1.0)
        assert m.solidity == pytest.approx(1.0, abs=1e-12)
        assert m.elongation == pytest.approx(1.0)
        assert m.flatness == pytest.approx(1.0)
        assert m.area == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_two_voxels_regularized(self):
        m = shape_metrics(np.array([[0, 0, 0], [1, 0, 0]]))
        # covariance floor: lam = (1/4 + 1/12, 1/12, 1/12)
        assert m.elongation == pytest.approx(2.0)
        assert m.flatness == pytest.approx(1.0)

    def test_scale_covariance(self, sphere10):
        coords = np.argwhere(sphere10)
        m1 = shape_metrics(coords, (1, 1, 1))
        m2 = shape_metrics(coords, (2, 2, 2))
        assert m2.volume == pytest.approx(8 * m1.volume, rel=1e-12)
        assert m2.area == pytest.approx(4 * m1.area, rel=1e-12)
        for field in ("sphericity", "elongation", "flatness", "solidity"):
            assert getattr(m2, field) == pytest.approx(getattr(m1, field), abs=1e-9)

    def test_sphericity_bounded_on_random_blobs(self):
        for seed in range(40):
            blob = random_blob(seed, dims=(10, 10, 10), density=0.3)
            lab = connected_components(np.argwhere(blob))
            if lab.n_components == 0:
                continue
            m = shape_metrics(lab.coords[:lab.sizes[0]])
            assert m.sphericity <= 1.05
            assert m.solidity <= 1.0 + 1e-6


class TestComponentShapeMetrics:
    """The one-pass metrics of a label's components against one component at a time."""

    @settings(max_examples=60, deadline=None)
    @given(seg=arrays(np.int8, st.tuples(*[st.integers(1, 7)] * 3),
                      elements=st.sampled_from([0, 0, 0, 1, 1, 2, 3])),
           spacing=st.sampled_from(SPACINGS))
    @example(seg=SMALL_CASES, spacing=(1.0, 1.0, 1.3))
    @example(seg=SMALL_CASES, spacing=(1.0, 1.0, 1.0))
    def test_equals_one_component_at_a_time(self, seg, spacing):
        for label in np.unique(seg[seg > 0]):
            lab = connected_components(np.argwhere(seg == label), spacing)
            batch = component_shape_metrics(lab.coords, lab.sizes, spacing)
            assert batch == [reference_shape_metrics(c, spacing)
                             for c in split_components(lab.coords, lab.sizes)]

    def test_small_cases_cover_their_branches(self):
        sizes = [n for label in (1, 2, 3)
                 for n in connected_components(np.argwhere(SMALL_CASES == label)).sizes.tolist()]
        assert min(sizes) == 1 and 2 in sizes and len(sizes) >= 8
        assert (SMALL_CASES[3, 4, 2], SMALL_CASES[2, 3, 2]) == (3, 0)  # rod and plate apart
        assert SMALL_CASES[2, 4, 2] == 3 and SMALL_CASES[2, 4, 3] == 2  # face contact
        assert SMALL_CASES[4, 3, 4] == 3 and SMALL_CASES[5, 4, 4] == 1  # edge contact

    def test_touching_and_overlapping_sets_keep_their_own_metrics(self):
        sets = [np.array([[0, 0, 0]]), np.array([[1, 1, 1], [2, 1, 1]]),
                np.array([[1, 1, 1], [1, 2, 1], [1, 2, 2]])]
        spacing = (1.0, 1.0, 1.3)
        assert component_shape_metrics(*ragged(sets), spacing) == [
            reference_shape_metrics(c, spacing) for c in sets]

    def test_wide_crops_do_not_pad_narrow_ones(self):
        """Two 400-voxel rods and 200 single voxels: one canvas padded to the
        rods' widths would hold about 65 million cells."""
        rods = [np.column_stack([np.zeros(400, int), np.arange(400), np.zeros(400, int)]),
                np.column_stack([np.full(400, 3), np.zeros(400, int), np.arange(400)])]
        singles = [np.array([[6 + 2 * i, 0, 0]]) for i in range(200)]
        components = rods + singles
        coords, sizes = ragged(components)
        tracemalloc.start()
        try:
            metrics = component_shape_metrics(coords, sizes, (1.0, 1.0, 1.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert metrics == [reference_shape_metrics(c, (1.0, 1.0, 1.3)) for c in components]

    @pytest.mark.parametrize("coords", [[], [np.zeros((0, 3), dtype=np.int64)]])
    def test_empty_input_is_refused(self, coords):
        with pytest.raises(GeometryError, match="empty"):
            component_shape_metrics(*ragged(coords))


def two_components(core: int, satellite: int) -> ComponentLabeling:
    """A labeling of a ``core``-voxel rod and a ``satellite``-voxel rod."""
    coords, sizes = ragged([[(i, 0, 0) for i in range(core)],
                            [(i, 5, 0) for i in range(satellite)]])
    return ComponentLabeling(coords, sizes, 1.0)


class TestAggregation:
    def test_single_component_identity(self):
        m = metrics_with(0.9, 1.2)
        agg = aggregate_metrics([m])
        assert agg == m
        assert all(type(v) is float for v in (agg.volume, agg.sphericity, *agg.eigenvalues))

    def test_dominant_core_selected(self):
        lab = two_components(90, 10)
        assert lab.core_fraction == 0.9 and lab.core_dominates
        coords, sizes = shape_components(lab)
        assert sizes.tolist() == [90] and np.array_equal(coords, lab.coords[:90])

    def test_mean_branch(self):
        agg = aggregate_metrics([metrics_with(0.8, 1.0), metrics_with(0.4, 2.0)])
        assert agg.sphericity == pytest.approx(0.6)
        assert agg.elongation == pytest.approx(1.5)
        lab = two_components(50, 50)
        assert not lab.core_dominates
        coords, sizes = shape_components(lab)
        assert coords is lab.coords and sizes is lab.sizes

    def test_boundary_exactly_070_selects_core(self):
        lab = two_components(70, 30)
        assert lab.core_fraction == 0.7 and lab.core_dominates
        assert shape_components(lab)[1].tolist() == [70]


class TestClassifier:
    def test_focus_under_100_mm3(self):
        assert shape_classify(metrics_with(0.99, 1.0), 50.0) == SHAPE_FOCUS

    def test_named_cases(self):
        assert shape_classify(metrics_with(0.90, 1.1), 5000.0) == SHAPE_ROUND
        assert shape_classify(metrics_with(0.70, 2.0), 5000.0) == SHAPE_OVAL
        assert shape_classify(metrics_with(0.50, 3.0), 5000.0) == SHAPE_ELONGATED
        assert shape_classify(metrics_with(0.50, 1.0), 5000.0) == SHAPE_IRREGULAR

    @pytest.mark.parametrize(
        "volume,expected",
        [
            (100.0 - 1e-9, SHAPE_FOCUS),
            (100.0, SHAPE_ROUND),  # strict <: boundary is not focus
            (100.0 + 1e-9, SHAPE_ROUND),
        ],
    )
    def test_focus_boundary(self, volume, expected):
        assert shape_classify(metrics_with(0.9, 1.0), volume) == expected

    @pytest.mark.parametrize(
        "phi,e,expected",
        [
            (0.85, 1.3, SHAPE_ROUND),  # both round bounds inclusive
            # phi just below round with e at oval's open lower bound: neither
            # round (phi) nor oval (needs e > 1.3) matches
            (0.85 - 1e-9, 1.3, SHAPE_IRREGULAR),
            # phi at oval's excluded upper bound: not round (e), not oval (phi)
            (0.85, 1.3 + 1e-9, SHAPE_IRREGULAR),
            (0.85 - 1e-9, 1.3 + 1e-9, SHAPE_OVAL),
            (0.60, 1.3 + 1e-9, SHAPE_OVAL),
            (0.60 - 1e-9, 1.3 + 1e-9, SHAPE_IRREGULAR),
            (0.60, 2.5, SHAPE_OVAL),
            (0.60, 2.5 - 1e-9, SHAPE_OVAL),
            (0.60, 2.5 + 1e-9, SHAPE_ELONGATED),
            (0.90, 2.5 + 1e-9, SHAPE_ELONGATED),
            (0.85 + 1e-9, 1.3, SHAPE_ROUND),
            (0.60 + 1e-9, 2.0, SHAPE_OVAL),
        ],
    )
    def test_threshold_boundaries(self, phi, e, expected):
        assert shape_classify(metrics_with(phi, e), 5000.0) == expected

    def test_oval_requires_elongation_above_round_bound(self):
        # phi in the oval band but e <= 1.3 falls through to irregular
        assert shape_classify(metrics_with(0.70, 1.2), 5000.0) == SHAPE_IRREGULAR


class TestDescribeShape:
    def test_empty_labeling_is_na(self):
        lab = connected_components(np.argwhere(np.zeros((4, 4, 4))))
        category, agg = describe(lab)
        assert category == "N/A"
        assert agg is None

    def test_sphere_is_round(self, sphere10):
        lab = connected_components(np.argwhere(sphere10))
        category, agg = describe(lab)
        assert category == SHAPE_ROUND
        assert agg is not None

    def test_ellipsoid_is_elongated(self):
        lab = connected_components(np.argwhere(digitized_ellipsoid((30, 8, 8))))
        category, _ = describe(lab)
        assert category == SHAPE_ELONGATED
