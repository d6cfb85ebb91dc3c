from __future__ import annotations

import hashlib
import itertools
import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from brainvqa import cli, hull, qagen
from brainvqa.cli import EXIT_NUMERIC, main
from brainvqa.moe import init_moe_params, save_checkpoint
from brainvqa.nifti import LabelMask, Volume3D, conform_to_ras, read_nifti_file, write_nifti_file
from brainvqa.qagen import record_from_json
from brainvqa.surface import marching_cubes, write_off
from brainvqa.synthetic import GLI_LABELS, block_atlas, write_fixture
from conftest import BRATS_DIMS, brats_grid_seg, edit_manifest
from moe_helpers import save_unchecked
from test_conform_paths import oblique_affine

GOLDEN = Path(__file__).parent / "data" / "golden_descriptors.jsonl"
# The same corpus described with float-summed mesh areas and hull volumes,
# before both became the canonical sums (case-count area, exact hull volume).
GOLDEN_FLOAT_SUMS = Path(__file__).parent / "data" / "golden_descriptors_float_sums.jsonl"
CANONICAL_SUM_FIELDS = ("area_mm2", "sphericity", "compactness", "solidity")
# The same corpus on a rotated, anisotropic grid (``oblique_fixture_dir``),
# captured before the slab conform shared its index pass between volumes.
GOLDEN_OBLIQUE = Path(__file__).parent / "data" / "golden_descriptors_oblique.jsonl"
# Many components per label (``scatter_fixture_dir``), captured while shape
# metrics were still computed one component at a time.
GOLDEN_SCATTER = Path(__file__).parent / "data" / "golden_descriptors_scatter.jsonl"
# SHA-256 of the mesh, heatmap, moe-demo and moe-check outputs, captured while
# parameter names were still a mapping class over the stacks and marching
# cubes still interpolated on a float grid.  The moe-check digest was taken
# again when its table lost the constant token-count row.
PINNED_DIGESTS = Path(__file__).parent / "data" / "golden_output_digests.sha256"


def pinned_digests(prefix: str = "") -> dict[str, str]:
    """The pinned digests of the outputs whose names start with ``prefix``."""
    rows = [line.split() for line in PINNED_DIGESTS.read_text().splitlines()
            if not line.startswith("#")]
    return {name: digest for digest, name in rows if name.startswith(prefix)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    write_fixture(root, n_studies=3, seed=7)
    return root


@pytest.fixture(scope="session")
def oblique_fixture_dir(tmp_path_factory) -> Path:
    """``write_fixture(n_studies=3, seed=7)`` with every volume on an oblique grid.

    Voxels are 1 x 1.1 x 1.3 mm, rotated 20 degrees about z and 12 about x.
    Every volume shares one affine, except study 0002's ``t1``, which is
    shifted by a fraction of a voxel: it conforms onto a grid of the same
    dims but another origin, so that study's ``t1`` and ``seg`` are
    resampled separately.
    """
    root = write_fixture(tmp_path_factory.mktemp("oblique"), n_studies=3, seed=7)
    for path in sorted(root.rglob("*.nii.gz")):
        shift = (0.35, -0.2, 0.1) if path.parent.name == "study_0002" and \
            path.name == "t1.nii.gz" else (0.0, 0.0, 0.0)
        affine = oblique_affine(20, 12, (1.0, 1.1, 1.3), shift)
        data = read_nifti_file(path).data
        write_nifti_file(Volume3D.from_array(data, (1.0, 1.1, 1.3), affine), path)
    return root


def scatter_seg(rng: np.random.Generator, dims) -> np.ndarray:
    """About 20 small components per label, each label scattered over the brain ball.

    Components are single voxels, pairs, rods, 3 x 3 plates and small
    ellipsoids (rods and plates have a zero minor axis).  Each label-1 box has
    a label-2 box against one face and each label-3 box a label-4 box against
    one edge, so labels touch without merging their components.
    """
    seg = np.zeros(dims, dtype=np.int16)
    grid = np.indices(dims)

    def spot(margin=4):
        return rng.integers(24 - 14 + margin, 24 + 14 - margin, size=3)

    for label in (1, 2, 3, 4):
        for k in range(16):
            c, axis = spot(), int(rng.integers(3))
            kind = k % 5
            if kind == 0:
                seg[tuple(c)] = label
            elif kind in (1, 2):
                end = c.copy()
                end[axis] += kind + int(rng.integers(3))  # pair or rod of 3-5 voxels
                seg[tuple(slice(a, b + 1) for a, b in zip(c, end))] = label
            elif kind == 3:
                size = np.full(3, 3)
                size[axis] = 1
                seg[tuple(slice(a, a + n) for a, n in zip(c, size))] = label
            else:
                semi = rng.uniform(0.9, 2.4, size=3)
                inside = (((grid - c[:, None, None, None]) / semi[:, None, None, None]) ** 2
                          ).sum(axis=0) <= 1.0
                seg[inside] = label
    for low, high, step in ((1, 2, (3, 0, 0)), (3, 4, (3, 3, 0))):
        for _ in range(3):
            c = spot(6)
            seg[c[0]:c[0] + 3, c[1]:c[1] + 3, c[2]:c[2] + 2] = low
            d = c + step
            seg[d[0]:d[0] + 3, d[1]:d[1] + 3, d[2]:d[2] + 2] = high
    return seg


@pytest.fixture(scope="session")
def scatter_fixture_dir(tmp_path_factory) -> Path:
    """Two studies of scattered lesions (:func:`scatter_seg`) on the oblique grid.

    The brain ball and atlas are ``write_fixture``'s; every volume is then
    rewritten on ``oblique_fixture_dir``'s 1 x 1.1 x 1.3 mm rotated grid.
    Study 0001's label 4 also has a radius-7 core, so that label takes the
    dominant-core branch while the others average their components.
    """
    root = write_fixture(tmp_path_factory.mktemp("scatter"), n_studies=2, seed=7)
    rng = np.random.default_rng(19)
    for study in sorted((root / "studies").iterdir()):
        seg = scatter_seg(rng, (48, 48, 48))
        if study.name == "study_0001":
            seg[np.sum((np.indices(seg.shape).T - (30, 18, 24)) ** 2, axis=-1).T <= 49] = 4
        write_nifti_file(Volume3D.from_array(seg), study / "seg.nii.gz")
    affine = oblique_affine(20, 12, (1.0, 1.1, 1.3), (0.0, 0.0, 0.0))
    for path in sorted(root.rglob("*.nii.gz")):
        data = read_nifti_file(path).data
        write_nifti_file(Volume3D.from_array(data, (1.0, 1.1, 1.3), affine), path)
    return root


@pytest.fixture(scope="session")
def brats_grid_dir(tmp_path_factory) -> Path:
    """Two studies on the 240 x 240 x 155 BraTS grid (:func:`brats_grid_seg`,
    seeds 0 and 1) with an ellipsoid brain, the block atlas and the GLI labels."""
    root = tmp_path_factory.mktemp("brats_grid")
    atlas = block_atlas(BRATS_DIMS)
    write_nifti_file(atlas.labels.volume, root / "atlas.nii.gz")
    (root / "region_map.json").write_text(
        json.dumps({str(k): v for k, v in atlas.region_map.items()}))
    (root / "labels.json").write_text(
        json.dumps({"labels": {str(k): v for k, v in GLI_LABELS.items()}}))
    grids = np.ogrid[tuple(slice(0, n) for n in BRATS_DIMS)]
    brain = sum(((g - n / 2) / (0.38 * n)) ** 2 for g, n in zip(grids, BRATS_DIMS)) <= 1.0
    for seed in (0, 1):
        study = root / "studies" / f"study_{seed:04d}"
        study.mkdir(parents=True)
        write_nifti_file(Volume3D.from_array(brain.astype(np.int16) * 100), study / "t1.nii.gz")
        write_nifti_file(Volume3D.from_array(brats_grid_seg(seed)), study / "seg.nii.gz")
    return root


@pytest.fixture
def geometry_calls(monkeypatch) -> Counter:
    """Counts the calls of ``component_shape_metrics`` by ``compute_descriptors``
    and of ``hull.quickhull``, and the components measured in total."""
    calls = Counter()
    metrics, quickhull = qagen.component_shape_metrics, hull.quickhull

    def counted_metrics(coords, sizes, spacing):
        calls["component_shape_metrics"] += 1
        calls["components"] += len(sizes)
        return metrics(coords, sizes, spacing)

    def counted_quickhull(points, group):
        calls["quickhull"] += 1
        return quickhull(points, group)

    monkeypatch.setattr(qagen, "component_shape_metrics", counted_metrics)
    monkeypatch.setattr(hull, "quickhull", counted_quickhull)
    return calls


def describe_args(root: Path, out: Path, workers: int = 1) -> list[str]:
    return [
        "describe",
        "--data-dir", str(root / "studies"),
        "--labels-config", str(root / "labels.json"),
        "--atlas", str(root / "atlas.nii.gz"),
        "--region-map", str(root / "region_map.json"),
        "--workers", str(workers),
        "--out", str(out),
    ]


class TestDescribe:
    def test_matches_golden_file(self, fixture_dir, tmp_path):
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(fixture_dir, out)) == 0
        assert out.read_text() == GOLDEN.read_text()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_oblique_corpus_matches_golden_file(self, oblique_fixture_dir, tmp_path, workers):
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(oblique_fixture_dir, out, workers)) == 0
        assert out.read_text() == GOLDEN_OBLIQUE.read_text()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scatter_corpus_matches_golden_file(self, scatter_fixture_dir, tmp_path, workers):
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(scatter_fixture_dir, out, workers)) == 0
        assert out.read_text() == GOLDEN_SCATTER.read_text()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mesh_out_matches_pinned_digests(self, fixture_dir, tmp_path, workers):
        mesh_dir = tmp_path / "mesh"
        assert main(describe_args(fixture_dir, tmp_path / "desc.jsonl", workers)
                    + ["--mesh-out", str(mesh_dir)]) == 0
        got = {f"mesh/{path.name}": sha256(path.read_bytes()) for path in mesh_dir.iterdir()}
        assert got == pinned_digests("mesh/")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_brats_grid_corpus_matches_pinned_digest(self, brats_grid_dir, tmp_path, workers):
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(brats_grid_dir, out, workers)) == 0
        assert sha256(out.read_bytes()) == pinned_digests()["describe/brats_grid.jsonl"]

    def test_scatter_corpus_covers_its_cases(self, scatter_fixture_dir):
        """After the conform: at least 10 components per label, both averaging
        and dominant-core labels, single-voxel components and touching labels."""
        rows = [json.loads(line) for line in GOLDEN_SCATTER.read_text().splitlines()]
        assert min(r["n_components"] for r in rows) >= 10
        assert {"scattered lesions", "core with satellite lesions"} <= {r["spread"] for r in rows}
        for study in ("study_0000", "study_0001"):
            path = scatter_fixture_dir / "studies" / study / "seg.nii.gz"
            seg = np.pad(conform_to_ras(read_nifti_file(path), (1.0,) * 3).data, 1)
            shifts = [s for s in itertools.product((-1, 0, 1), repeat=3) if any(s)]
            neighbours = [np.roll(seg, s, axis=(0, 1, 2)) for s in shifts]
            lesion = seg > 0
            other_label = np.any([(n > 0) & (n != seg) for n in neighbours], axis=0)
            alone = np.all([n != seg for n in neighbours], axis=0)
            assert (lesion & other_label).any(), study
            assert (lesion & alone).sum() >= 4, study

    def test_one_metrics_pass_and_one_hull_per_study(
            self, scatter_fixture_dir, tmp_path, geometry_calls):
        """Every label's measured components share one metrics call per study:
        the core of a dominant-core label, every component of the others."""
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(scatter_fixture_dir, out)) == 0
        assert out.read_text() == GOLDEN_SCATTER.read_text()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        measured = sum(1 if r["spread"] == "core with satellite lesions" else r["n_components"]
                       for r in rows)
        assert geometry_calls == {"component_shape_metrics": 2, "quickhull": 2,
                                  "components": measured}

    def test_study_without_lesions_needs_no_geometry(self, fixture_dir, tmp_path, geometry_calls):
        root = tmp_path / "corpus"
        shutil.copytree(fixture_dir, root)
        for study in sorted((root / "studies").iterdir())[1:]:
            shutil.rmtree(study)
        path = root / "studies" / "study_0000" / "seg.nii.gz"
        seg = read_nifti_file(path)
        write_nifti_file(Volume3D.from_array(np.zeros_like(seg.data), seg.header.pixdim,
                                             seg.header.affine), path)
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(root, out)) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 4
        for r in rows:
            assert (r["volume_bin"], r["regions"], r["shape"], r["spread"]) == ("N/A",) * 4
            assert (r["n_components"], r["shape_metrics"]) == (0, None)
        assert geometry_calls == {}

    def test_canonical_sums_move_only_their_fields(self):
        """Against the float-sum descriptors: four fields within 1e-12, the rest identical."""
        old = [json.loads(line) for line in GOLDEN_FLOAT_SUMS.read_text().splitlines()]
        new = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
        assert len(new) == len(old) == 12
        moved = 0
        for before, after in zip(old, new):
            metrics_before = before.pop("shape_metrics")
            metrics_after = after.pop("shape_metrics")
            assert after == before  # categories, counts, volumes, regions, warnings
            if metrics_before is None:
                assert metrics_after is None
                continue
            assert metrics_after.keys() == metrics_before.keys()
            for key, value in metrics_before.items():
                if key in CANONICAL_SUM_FIELDS:
                    assert metrics_after[key] == pytest.approx(value, rel=1e-12, abs=0)
                    moved += metrics_after[key] != value
                else:
                    assert json.dumps(metrics_after[key]) == json.dumps(value), key
        assert moved > 0

    def test_rerun_byte_identical(self, fixture_dir, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(describe_args(fixture_dir, a)) == 0
        assert main(describe_args(fixture_dir, b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_output(self, fixture_dir, tmp_path):
        a, b = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
        assert main(describe_args(fixture_dir, a, workers=1)) == 0
        assert main(describe_args(fixture_dir, b, workers=4)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32])
    def test_atlas_dtype_does_not_change_output(self, fixture_dir, tmp_path, dtype):
        parsed = read_nifti_file(fixture_dir / "atlas.nii.gz")
        # a float atlas is truncated to int32, so a fraction leaves its labels as they were
        data = parsed.data + 0.25 if np.dtype(dtype).kind == "f" else parsed.data
        atlas_path = tmp_path / "atlas.nii.gz"
        write_nifti_file(Volume3D.from_array(data.astype(dtype), parsed.header.pixdim,
                                             parsed.header.affine), atlas_path)
        args = describe_args(fixture_dir, tmp_path / "desc.jsonl")
        args[args.index("--atlas") + 1] = str(atlas_path)
        assert main(args) == 0
        assert (tmp_path / "desc.jsonl").read_text() == GOLDEN.read_text()
        namespace = cli.build_parser().parse_args(args)
        loaded = cli._load_atlas(namespace).labels.volume.data
        assert loaded.dtype == (np.int32 if np.dtype(dtype).kind == "f" else dtype)

    def test_missing_atlas_exit_2(self, fixture_dir, tmp_path):
        args = describe_args(fixture_dir, tmp_path / "x.jsonl")
        idx = args.index("--atlas")
        args[idx + 1] = str(tmp_path / "missing.nii.gz")
        assert main(args) == 2

    @pytest.mark.parametrize("flag", ["--data-dir", "--labels-config", "--atlas",
                                      "--region-map"])
    def test_missing_geometry_flag_is_config_error(self, fixture_dir, tmp_path, capsys,
                                                   monkeypatch, flag):
        monkeypatch.delenv("BRAINVQA_DATA_DIR", raising=False)
        args = describe_args(fixture_dir, tmp_path / "x.jsonl")
        idx = args.index(flag)
        del args[idx : idx + 2]
        assert main(args) == 2
        assert f"needs {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_env_var_supplies_data_dir(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("BRAINVQA_DATA_DIR", str(fixture_dir / "studies"))
        out = tmp_path / "env.jsonl"
        args = describe_args(fixture_dir, out)
        idx = args.index("--data-dir")
        del args[idx : idx + 2]
        assert main(args) == 0
        assert out.read_text() == GOLDEN.read_text()

    @pytest.mark.parametrize("flag, value", [
        ("--spacing", "inf"), ("--spacing", "nan"), ("--spacing", "-1"), ("--spacing", "0"),
        ("--workers", "0"), ("--workers", "-3"),
    ])
    def test_spacing_or_workers_out_of_range_is_config_error(
            self, fixture_dir, tmp_path, capsys, monkeypatch, flag, value):
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "read_nifti_file", unread)
        out = tmp_path / "x.jsonl"
        assert main(describe_args(fixture_dir, out) + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {flag} must be") and err.count("\n") == 1
        assert not out.exists()

    def test_all_na_descriptor_present(self, fixture_dir, tmp_path):
        out = tmp_path / "desc.jsonl"
        main(describe_args(fixture_dir, out))
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 12  # 3 studies x 4 labels
        absent = [r for r in rows if r["volume_bin"] == "N/A"]
        assert absent, "fixture should include at least one absent label"
        for row in absent:
            assert row["regions"] == "N/A"
            assert row["shape"] == "N/A"
            assert row["spread"] == "N/A"

    def test_mesh_export_of_the_crop_equals_the_full_grid_mesh(self, tmp_path):
        seg = np.zeros((30, 26, 22), dtype=np.int16)
        seg[17:24, 11:19, 9:20] = 3
        seg[19:22, 13:16, 12:15] = 0  # a cavity
        seg[25, 20, 18] = 3  # a satellite voxel
        spacing = (1.0, 1.3, 0.7)
        cli._export_meshes("s", LabelMask(Volume3D.from_array(seg), {3: "lesion"}), spacing,
                           tmp_path / "crop")
        write_off(marching_cubes(seg == 3, spacing), tmp_path / "full.off")
        assert (tmp_path / "crop" / "s_lesion.off").read_bytes() == (
            tmp_path / "full.off").read_bytes()

    def test_mesh_out_writes_off_files(self, fixture_dir, tmp_path):
        out = tmp_path / "desc.jsonl"
        mesh_dir = tmp_path / "meshes"
        assert main(describe_args(fixture_dir, out)
                    + ["--mesh-out", str(mesh_dir)]) == 0
        meshes = sorted(mesh_dir.glob("*.off"))
        assert meshes, "no OFF meshes written"
        first = meshes[0].read_text().splitlines()
        assert first[0] == "OFF"
        nv, nf, _ = map(int, first[1].split())
        assert nv > 0 and nf > 0


    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_bad_study_lands_in_failures(self, fixture_dir, tmp_path, damage):
        root = tmp_path / "corpus"
        shutil.copytree(fixture_dir, root)
        seg = root / "studies" / "study_0001" / "seg.nii.gz"
        raw = bytearray(seg.read_bytes())
        if damage == "truncated":
            raw = raw[: len(raw) // 2]
        else:
            raw[-8:-4] = bytes(b ^ 0xFF for b in raw[-8:-4])  # CRC32 of the stream
        seg.write_bytes(bytes(raw))
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(root, out)) == 0
        failures = json.loads(Path(str(out) + ".failures.json").read_text())["failures"]
        assert [f["study_id"] for f in failures] == ["study_0001"]
        expected = {"truncated": "TruncatedFileError", "corrupt": "FormatError"}[damage]
        assert failures[0]["error_type"] == expected
        assert "traceback" not in failures[0]
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert sorted({r["study_id"] for r in rows}) == ["study_0000", "study_0002"]
        golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
        assert rows == [r for r in golden if r["study_id"] != "study_0001"]

    def test_unexpected_error_in_one_study_is_recorded(self, fixture_dir, tmp_path,
                                                       monkeypatch):
        real = cli.compute_descriptors

        def flaky(study_id, *args, **kwargs):
            if study_id == "study_0001":
                raise ValueError("geometry went wrong")
            return real(study_id, *args, **kwargs)

        monkeypatch.setattr(cli, "compute_descriptors", flaky)
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(fixture_dir, out, workers=2)) == 0
        failures = json.loads(Path(str(out) + ".failures.json").read_text())["failures"]
        assert [(f["study_id"], f["error_type"], f["error"]) for f in failures] == [
            ("study_0001", "ValueError", "geometry went wrong")]
        assert "ValueError: geometry went wrong" in failures[0]["traceback"]
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
        assert rows == [r for r in golden if r["study_id"] != "study_0001"]


class TestGenerate:
    def test_from_descriptors_count_law(self, tmp_path):
        out = tmp_path / "data.jsonl"
        assert main(["generate", "--descriptors", str(GOLDEN), "--seed", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12 * 6
        records = [record_from_json(json.loads(l)) for l in lines]
        assert {r.oos_kind for r in records} == {"none", "partial", "full"}

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate", "--descriptors", str(GOLDEN), "--seed", "5", "--out", str(a)])
        main(["generate", "--descriptors", str(GOLDEN), "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate", "--descriptors", str(GOLDEN), "--seed", "5", "--out", str(a)])
        main(["generate", "--descriptors", str(GOLDEN), "--seed", "6", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("command, refused", [
        ("generate", None), ("split", None), ("generate", "--data-dir"), ("split", "--studies")])
    def test_descriptors_are_the_only_input(self, tmp_path, capsys, command, refused):
        """Volumes and study lists reach generate and split only through describe."""
        out = tmp_path / "out"
        inputs = ["--descriptors", str(GOLDEN), refused, str(tmp_path)] if refused else []
        with pytest.raises(SystemExit) as exit_info:
            main([command, *inputs, "--seed", "1", "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert (f"unrecognized arguments: {refused}" if refused
                else "required: --descriptors") in err, err
        assert not out.exists()


class TestStatsSplitEval:
    @pytest.fixture()
    def dataset(self, tmp_path) -> Path:
        out = tmp_path / "data.jsonl"
        main(["generate", "--descriptors", str(GOLDEN), "--seed", "5", "--out", str(out)])
        return out

    def test_stats_csv(self, dataset, tmp_path, capsys):
        out = tmp_path / "freq.csv"
        assert main(["stats", "--in", str(dataset), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert '"questions": 72' in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "task,label,frequency_pct"
        oos = [l for l in lines if l.startswith("out-of-scope,Out-of-scope")]
        assert oos and float(oos[0].split(",")[-1]) == pytest.approx(33.3, abs=0.05)

    def test_eval_perfect_predictions(self, dataset, tmp_path):
        preds = tmp_path / "pred.jsonl"
        lines = []
        for raw in dataset.read_text().splitlines():
            d = json.loads(raw)
            lines.append(json.dumps({
                "id": d["id"], "volume": d["gold_volume"], "regions": d["gold_regions"],
                "shape": d["gold_shape"], "spread": d["gold_spread"], "oos": d["oos_kind"],
            }))
        preds.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["eval", "--gold", str(dataset), "--pred", str(preds),
                     "--out", str(report_path), "--kappa", str(dataset),
                     "--resamples", "40"]) == 0
        report = json.loads(report_path.read_text())
        assert report["task_mean"] == 100.0
        assert report["oos_accuracy"] == 100.0
        assert report["kappa"]["mean"] == 100.0

    @pytest.mark.parametrize("resamples", ["0", "-3"])
    def test_eval_fewer_than_one_resample_exit_2(self, dataset, tmp_path, capsys, resamples):
        report_path = tmp_path / "report.json"
        assert main(["eval", "--gold", str(dataset), "--pred", str(dataset),
                     "--out", str(report_path), "--resamples", resamples]) == 2
        assert "at least 1 resample" in capsys.readouterr().err
        assert not report_path.exists()

    def test_eval_reports_are_deterministic(self, dataset, tmp_path):
        preds = tmp_path / "pred.jsonl"
        lines = []
        for i, raw in enumerate(dataset.read_text().splitlines()):
            d = json.loads(raw)
            lines.append(json.dumps({
                "id": d["id"],
                "volume": d["gold_volume"] if i % 3 else "N/A",
                "regions": d["gold_regions"], "shape": d["gold_shape"],
                "spread": d["gold_spread"], "oos": d["oos_kind"],
            }))
        preds.write_text("\n".join(lines) + "\n")
        a, b = tmp_path / "ra.json", tmp_path / "rb.json"
        main(["eval", "--gold", str(dataset), "--pred", str(preds), "--out", str(a),
              "--seed", "4", "--resamples", "60"])
        main(["eval", "--gold", str(dataset), "--pred", str(preds), "--out", str(b),
              "--seed", "4", "--resamples", "60"])
        assert a.read_bytes() == b.read_bytes()


class TestMoECommands:
    def test_moe_check_passes(self, tmp_path, capsys):
        assert main(["moe-check", "--seed", "0", "--configs", "4",
                     "--prompts", "300", "--experts", "4"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_moe_check_stdout_matches_pinned_digest(self, capsys):
        assert main(["moe-check", "--configs", "5", "--prompts", "200"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == pinned_digests()["moe-check.stdout"]

    def test_moe_check_nan_gradient_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "finite_difference_errors",
                            lambda model, batch, picks: {"a": 0.0, "b": float("nan")})
        assert main(["moe-check", "--seed", "0", "--configs", "1",
                     "--prompts", "20", "--experts", "4"]) == EXIT_NUMERIC
        row = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("gradient"))
        assert "nan" in row and row.endswith("FAIL")

    @pytest.mark.parametrize("flag, value", [("--prompts", "0"), ("--prompts", "-1"),
                                             ("--configs", "0")])
    def test_moe_check_fewer_than_one_count_exit_2(self, capsys, flag, value):
        assert main(["moe-check", flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {flag} must be at least 1, got {value}\n"

    def test_moe_demo_short_run(self, tmp_path):
        out = tmp_path / "curve.csv"
        ckpt = tmp_path / "params.bin"
        assert main(["moe-demo", "--steps", "8", "--lr", "0.3", "--target", "0",
                     "--out", str(out), "--save-params", str(ckpt)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 9
        losses = [float(l.split(",")[1]) for l in lines[1:]]
        assert losses[-1] < losses[0]
        assert ckpt.exists()

    def test_moe_demo_matches_pinned_digests(self, tmp_path):
        curve, ckpt = tmp_path / "curve.csv", tmp_path / "params.bvqm"
        assert main(["moe-demo", "--steps", "50", "--out", str(curve),
                     "--save-params", str(ckpt)]) == 0
        pinned = pinned_digests()
        assert sha256(curve.read_bytes()) == pinned["curve.csv"]
        assert sha256(ckpt.read_bytes()) == pinned["params.bvqm"]

    def test_heatmap_without_params_matches_pinned_digest(self, tmp_path):
        out = tmp_path / "heatmap.csv"
        assert main(["heatmap", "--out", str(out)]) == 0
        assert sha256(out.read_bytes()) == pinned_digests()["heatmap.csv"]

    @pytest.mark.parametrize("keep", [6, 40, -3])
    def test_heatmap_truncated_params_exit_3(self, tmp_path, keep):
        ckpt = tmp_path / "params.bin"
        save_checkpoint(ckpt, init_moe_params(1, n_experts=4, n_modalities=4, d_image=16,
                                              d_text=32))
        ckpt.write_bytes(ckpt.read_bytes()[:keep])
        assert main(["heatmap", "--params", str(ckpt), "--out", str(tmp_path / "h.csv")]) == 3

    def test_heatmap_mismatched_params_exit_3(self, tmp_path, capsys):
        params = init_moe_params(1, n_experts=4, n_modalities=4, d_image=16, d_text=32)
        arrays = dict(params.arrays, **{n: np.ones(1) for n in params.arrays if n.startswith("high.")})
        ckpt = tmp_path / "params.bin"
        save_unchecked(ckpt, params.config, arrays)
        assert main(["heatmap", "--params", str(ckpt), "--out", str(tmp_path / "h.csv")]) == 3
        assert "do not match its config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--experts", "--d-text"])
    def test_heatmap_zero_size_exit_2(self, tmp_path, capsys, flag):
        assert main(["heatmap", flag, "0", "--out", str(tmp_path / "h.csv")]) == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_heatmap_zero_size_params_exit_3(self, tmp_path, capsys):
        ckpt = tmp_path / "params.bin"
        save_checkpoint(ckpt, init_moe_params(1, n_experts=2, n_modalities=4, d_image=16,
                                              d_text=32))
        edit_manifest(ckpt, lambda manifest: manifest.update(n_experts=0))
        assert main(["heatmap", "--params", str(ckpt), "--out", str(tmp_path / "h.csv")]) == 3
        assert "must be at least 1" in capsys.readouterr().err

    def test_heatmap_60_prompts(self, tmp_path):
        out = tmp_path / "heat.csv"
        assert main(["heatmap", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 61  # header + 4 labels x 15 subsets
        header = lines[0].split(",")
        assert len(header) == 61
        first_row = lines[1].split(",")
        assert float(first_row[1]) == 1.0  # unit diagonal


class TestMalformedJsonl:
    """Every JSONL reader ends a bad line in exit 3 naming the file and line."""

    @pytest.fixture()
    def dataset(self, tmp_path) -> Path:
        out = tmp_path / "data.jsonl"
        main(["generate", "--descriptors", str(GOLDEN), "--seed", "5", "--out", str(out)])
        return out

    @staticmethod
    def damaged(path: Path, tmp_path: Path, line: str) -> Path:
        lines = path.read_text().splitlines()
        lines.insert(2, line)
        out = tmp_path / f"bad_{path.name}"
        out.write_text("\n".join(lines) + "\n")
        return out

    @staticmethod
    def without(path: Path, key: str) -> str:
        row = json.loads(path.read_text().splitlines()[0])
        del row[key]
        return json.dumps(row)

    def assert_exit_3_at_line_3(self, argv, bad: Path, capsys):
        assert main(argv) == 3
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_generate_descriptor_without_label_name(self, tmp_path, capsys):
        bad = self.damaged(GOLDEN, tmp_path, self.without(GOLDEN, "label_name"))
        self.assert_exit_3_at_line_3(["generate", "--descriptors", str(bad), "--seed", "1",
                                      "--out", str(tmp_path / "o.jsonl")], bad, capsys)

    def test_generate_descriptor_with_infinite_count(self, tmp_path, capsys):
        row = json.loads(GOLDEN.read_text().splitlines()[0])
        bad = self.damaged(GOLDEN, tmp_path, json.dumps({**row, "n_components": float("inf")}))
        self.assert_exit_3_at_line_3(["generate", "--descriptors", str(bad), "--seed", "1",
                                      "--out", str(tmp_path / "o.jsonl")], bad, capsys)

    def test_stats_line_not_json(self, dataset, tmp_path, capsys):
        bad = self.damaged(dataset, tmp_path, "{not json")
        self.assert_exit_3_at_line_3(["stats", "--in", str(bad), "--out", str(tmp_path / "f.csv")],
                                     bad, capsys)

    def test_split_descriptor_without_study_id(self, tmp_path, capsys):
        bad = self.damaged(GOLDEN, tmp_path, self.without(GOLDEN, "study_id"))
        self.assert_exit_3_at_line_3(["split", "--seed", "1", "--descriptors", str(bad),
                                      "--out", str(tmp_path / "s.json")], bad, capsys)

    def test_eval_gold_record_without_study_id(self, dataset, tmp_path, capsys):
        bad = self.damaged(dataset, tmp_path, self.without(dataset, "study_id"))
        self.assert_exit_3_at_line_3(["eval", "--gold", str(bad), "--pred", str(dataset),
                                      "--out", str(tmp_path / "r.json")], bad, capsys)

    def test_eval_prediction_not_an_object(self, dataset, tmp_path, capsys):
        bad = self.damaged(dataset, tmp_path, "[1, 2]")
        self.assert_exit_3_at_line_3(["eval", "--gold", str(dataset), "--pred", str(bad),
                                      "--out", str(tmp_path / "r.json")], bad, capsys)

    @pytest.mark.parametrize("field, value", [
        ("id", [1]), ("volume", 5), ("regions", 5), ("regions", [["frontal"]]),
        ("shape", 0.5), ("spread", {"n": 1}), ("oos", True),
    ])
    def test_eval_prediction_field_of_wrong_type(self, dataset, tmp_path, capsys, field, value):
        d = json.loads(dataset.read_text().splitlines()[0])
        row = {"id": d["id"], "volume": d["gold_volume"], "regions": d["gold_regions"],
               "shape": d["gold_shape"], "spread": d["gold_spread"], "oos": d["oos_kind"]}
        bad = self.damaged(dataset, tmp_path, json.dumps({**row, field: value}))
        self.assert_exit_3_at_line_3(["eval", "--gold", str(dataset), "--pred", str(bad),
                                      "--out", str(tmp_path / "r.json")], bad, capsys)

    def test_eval_rejects_a_dataset_as_predictions(self, dataset, tmp_path, capsys):
        assert main(["eval", "--gold", str(dataset), "--pred", str(dataset),
                     "--out", str(tmp_path / "r.json")]) == 3
        assert f"{dataset}: no line gives a prediction" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_eval_kappa_line_not_utf8(self, dataset, tmp_path, capsys):
        bad = tmp_path / "kappa.jsonl"
        lines = dataset.read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join(lines[:2]) + b"\xff\xfe\n" + b"".join(lines[2:]))
        self.assert_exit_3_at_line_3(["eval", "--gold", str(dataset), "--pred", str(dataset),
                                      "--out", str(tmp_path / "r.json"), "--kappa", str(bad),
                                      "--resamples", "5"], bad, capsys)


class TestEvalChecksScoredIdsInFull:
    """``eval`` decodes every non-blank line once, and parses in full only the
    --pred and --kappa lines whose id is a gold id; every other non-blank line
    must still be a JSON object with a string ``id``."""

    UNSCORED = "unscored/0"

    @pytest.fixture()
    def files(self, tmp_path) -> dict[str, Path]:
        dataset = tmp_path / "data.jsonl"
        main(["generate", "--descriptors", str(GOLDEN), "--seed", "5", "--out", str(dataset)])
        lines = dataset.read_text().splitlines()
        gold = tmp_path / "gold.jsonl"
        gold.write_text("\n".join(lines[:24]) + "\n")
        preds = tmp_path / "pred.jsonl"
        rows = []
        for i, raw in enumerate(lines):
            d = json.loads(raw)
            rows.append(json.dumps({
                "id": d["id"], "volume": d["gold_volume"] if i % 3 else "N/A",
                "regions": d["gold_regions"], "shape": d["gold_shape"],
                "spread": d["gold_spread"], "oos": d["oos_kind"]}))
        preds.write_text("\n".join(rows) + "\n")
        return {"--gold": gold, "--pred": preds, "--kappa": dataset}

    @staticmethod
    def eval_with(files: dict[str, Path], out: Path, **replaced: Path) -> int:
        argv = ["eval", "--out", str(out), "--resamples", "30"]
        for flag, path in files.items():
            argv += [flag, str(replaced.get(flag[2:], path))]
        return main(argv)

    @staticmethod
    def with_line_3(path: Path, tmp_path: Path, line: bytes) -> Path:
        lines = path.read_bytes().splitlines(keepends=True)
        out = tmp_path / f"bad_{path.name}"
        out.write_bytes(b"".join(lines[:2]) + line + b"\n" + b"".join(lines[2:]))
        return out

    def unscored_mistyped(self, flag: str, files: dict[str, Path]) -> bytes:
        if flag == "--pred":
            return json.dumps({"id": self.UNSCORED, "volume": 5}).encode()
        row = json.loads(files["--kappa"].read_text().splitlines()[0])
        return json.dumps({**row, "id": self.UNSCORED, "gold_regions": [1]}).encode()

    @pytest.mark.parametrize("flag", ["--pred", "--kappa"])
    def test_unscored_mistyped_line_changes_no_byte(self, files, tmp_path, flag):
        assert self.eval_with(files, tmp_path / "want.json") == 0
        bad = self.with_line_3(files[flag], tmp_path, self.unscored_mistyped(flag, files))
        assert self.eval_with(files, tmp_path / "got.json", **{flag[2:]: bad}) == 0
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("flag", ["--pred", "--kappa"])
    @pytest.mark.parametrize("line", [
        b"{not json", b"\xff\xfe", b"[1, 2]", b'"unscored/0"', b'{"volume": "1-5%"}',
        b'{"id": 7, "volume": "1-5%"}', b'{"id": null}', b'{"id": ["unscored/0"]}',
    ])
    def test_unscored_line_without_an_object_with_string_id_exit_3(
            self, files, tmp_path, capsys, flag, line):
        bad = self.with_line_3(files[flag], tmp_path, line)
        out = tmp_path / "r.json"
        assert self.eval_with(files, out, **{flag[2:]: bad}) == 3
        assert f"{bad}:3:" in capsys.readouterr().err
        assert not out.exists()

    def test_one_decode_per_non_blank_line(self, files, tmp_path, monkeypatch):
        pred = tmp_path / "pred_with_blanks.jsonl"
        pred.write_text("\n" + files["--pred"].read_text().replace("\n", "\n \n"))
        lines = sum(1 for path in (files["--gold"], pred, files["--kappa"])
                    for line in path.read_text().splitlines() if line.strip())
        calls, real_loads = [], json.loads

        def counted_loads(text, **kwargs):
            calls.append(text)
            return real_loads(text, **kwargs)

        monkeypatch.setattr(json, "loads", counted_loads)
        assert self.eval_with(files, tmp_path / "r.json", pred=pred) == 0
        assert len(calls) == lines

    def test_dataset_as_pred_is_refused(self, files, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert self.eval_with(files, out, pred=files["--kappa"]) == 3
        assert f"{files['--kappa']}: no line gives a prediction" in capsys.readouterr().err
        assert not out.exists()

    def test_predictions_only_on_unscored_lines_are_refused(self, files, tmp_path, capsys):
        gold_ids = {json.loads(l)["id"] for l in files["--gold"].read_text().splitlines()}
        rows = [json.loads(l) for l in files["--pred"].read_text().splitlines()]
        preds = tmp_path / "unscored_only.jsonl"
        preds.write_text("".join(json.dumps({"id": r["id"]} if r["id"] in gold_ids else r)
                                 + "\n" for r in rows))
        assert self.eval_with(files, tmp_path / "r.json", pred=preds) == 3
        assert f"{preds}: no line gives a prediction" in capsys.readouterr().err


class TestUnreadableInputs:
    """A directory or an unreadable file in an input slot exits 2 with one line."""

    @staticmethod
    def command(flag: str, root: Path, data: Path, out: Path) -> list[str]:
        if flag in ("--labels-config", "--atlas", "--region-map"):
            return describe_args(root, out)
        return {
            "generate --descriptors": ["generate", "--descriptors", str(GOLDEN), "--seed", "1"],
            "generate --bank": ["generate", "--descriptors", str(GOLDEN), "--bank", "x",
                                "--seed", "1"],
            "--in": ["stats", "--in", "x"],
            "split --descriptors": ["split", "--seed", "1", "--descriptors", "x"],
            "--gold": ["eval", "--gold", "x", "--pred", str(data)],
            "--pred": ["eval", "--gold", str(data), "--pred", "x"],
            "--kappa": ["eval", "--gold", str(data), "--pred", str(data), "--kappa", "x"],
            "--params": ["heatmap", "--params", "x"],
            "heatmap --bank": ["heatmap", "--bank", "x"],
        }[flag] + ["--out", str(out)]

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory) -> Path:
        out = tmp_path_factory.mktemp("dataset") / "data.jsonl"
        assert main(["generate", "--descriptors", str(GOLDEN), "--seed", "5",
                     "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("flag", [
        "--labels-config", "--atlas", "--region-map", "generate --descriptors",
        "generate --bank", "--in", "split --descriptors", "--gold", "--pred",
        "--kappa", "--params", "heatmap --bank"])
    def test_directory_exit_2(self, fixture_dir, dataset, tmp_path, capsys, flag):
        out = tmp_path / "out"
        argv = self.command(flag, fixture_dir, dataset, out)
        argv[argv.index(flag.split()[-1]) + 1] = str(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Is a directory" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("error", [PermissionError, IsADirectoryError])
    def test_unreadable_atlas_exit_2(self, fixture_dir, tmp_path, capsys, monkeypatch, error):
        def refuse(path):
            raise error(f"refused: {path}")

        monkeypatch.setattr(cli, "read_nifti_file", refuse)
        out = tmp_path / "out"
        assert main(describe_args(fixture_dir, out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "refused" in err, err
        assert not out.exists()

    def test_directory_as_study_volume_is_that_studys_failure(self, fixture_dir, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(fixture_dir, root)
        seg = root / "studies" / "study_0001" / "seg.nii.gz"
        seg.unlink()
        seg.mkdir()
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(root, out)) == 0
        failures = json.loads(Path(str(out) + ".failures.json").read_text())["failures"]
        assert [(f["study_id"], f["error_type"]) for f in failures] == [
            ("study_0001", "FormatError")]
        assert "no seg.nii[.gz]" in failures[0]["error"]
        assert "traceback" not in failures[0]
        golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows == [r for r in golden if r["study_id"] != "study_0001"]

    def test_unreadable_study_volume_is_recorded_without_traceback(self, fixture_dir,
                                                                   tmp_path, monkeypatch):
        real = cli.read_nifti_file

        def refuse(path):
            if Path(path).parent.name == "study_0001":
                raise PermissionError(13, "Permission denied", str(path))
            return real(path)

        monkeypatch.setattr(cli, "read_nifti_file", refuse)
        out = tmp_path / "desc.jsonl"
        assert main(describe_args(fixture_dir, out)) == 0
        failures = json.loads(Path(str(out) + ".failures.json").read_text())["failures"]
        assert [(f["study_id"], f["error_type"]) for f in failures] == [
            ("study_0001", "PermissionError")]
        assert "traceback" not in failures[0]
