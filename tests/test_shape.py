from __future__ import annotations

import numpy as np
import pytest

from brainvqa.morphology import connected_components
from brainvqa.shape import (
    SHAPE_ELONGATED,
    SHAPE_FOCUS,
    SHAPE_IRREGULAR,
    SHAPE_OVAL,
    SHAPE_ROUND,
    ShapeMetrics,
    aggregate_metrics,
    describe_shape,
    pca_axes,
    shape_classify,
    shape_metrics,
)
from conftest import digitized_ellipsoid, random_blob


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
            m = shape_metrics(lab.component_coords[0])
            assert m.sphericity <= 1.05
            assert m.solidity <= 1.0 + 1e-6


class TestAggregation:
    def test_single_component_identity(self):
        m = metrics_with(0.9, 1.2)
        assert aggregate_metrics([m], f_core=1.0, n_components=1) is m

    def test_dominant_core_selected(self):
        core = metrics_with(0.9, 1.0)
        satellite = metrics_with(0.3, 3.0)
        agg = aggregate_metrics([core, satellite], f_core=0.9, n_components=2)
        assert agg.sphericity == 0.9

    def test_mean_branch(self):
        agg = aggregate_metrics(
            [metrics_with(0.8, 1.0), metrics_with(0.4, 2.0)], f_core=0.5, n_components=2
        )
        assert agg.sphericity == pytest.approx(0.6)
        assert agg.elongation == pytest.approx(1.5)

    def test_boundary_exactly_070_selects_core(self):
        core = metrics_with(0.9, 1.0)
        agg = aggregate_metrics([core, metrics_with(0.1, 1.0)], f_core=0.7, n_components=2)
        assert agg.sphericity == 0.9


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
        category, agg = describe_shape(lab)
        assert category == "N/A"
        assert agg is None

    def test_sphere_is_round(self, sphere10):
        lab = connected_components(np.argwhere(sphere10))
        category, agg = describe_shape(lab)
        assert category == SHAPE_ROUND
        assert agg is not None

    def test_ellipsoid_is_elongated(self):
        lab = connected_components(np.argwhere(digitized_ellipsoid((30, 8, 8))))
        category, _ = describe_shape(lab)
        assert category == SHAPE_ELONGATED
