from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from brainvqa import cli
from brainvqa.cli import EXIT_NUMERIC, main
from brainvqa.moe import init_moe_params, save_checkpoint
from brainvqa.nifti import LabelMask, Volume3D, read_nifti_file, write_nifti_file
from brainvqa.qagen import record_from_json
from brainvqa.surface import marching_cubes, write_off
from brainvqa.synthetic import write_fixture
from conftest import edit_manifest
from moe_helpers import save_unchecked

GOLDEN = Path(__file__).parent / "data" / "golden_descriptors.jsonl"
# The same corpus described with float-summed mesh areas and hull volumes,
# before both became the canonical sums (case-count area, exact hull volume).
GOLDEN_FLOAT_SUMS = Path(__file__).parent / "data" / "golden_descriptors_float_sums.jsonl"
CANONICAL_SUM_FIELDS = ("area_mm2", "sphericity", "compactness", "solidity")


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    write_fixture(root, n_studies=3, seed=7)
    return root


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
        records = [record_from_json(l) for l in lines]
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

    def test_full_pipeline_equals_stub_path(self, fixture_dir, tmp_path):
        via_dir = tmp_path / "dir.jsonl"
        via_stub = tmp_path / "stub.jsonl"
        args = describe_args(fixture_dir, tmp_path / "d.jsonl")
        args[0] = "generate"
        main(args + ["--seed", "9"])
        # describe_args writes to --out d.jsonl; regenerate via stub from golden
        main(["generate", "--descriptors", str(GOLDEN), "--seed", "9", "--out", str(via_stub)])
        via_dir_text = (tmp_path / "d.jsonl").read_text()
        assert via_dir_text == via_stub.read_text()

    def test_requires_an_input(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BRAINVQA_DATA_DIR", raising=False)
        assert main(["generate", "--seed", "1", "--out", str(tmp_path / "x.jsonl")]) == 2

    def test_data_dir_without_atlas_is_config_error(self, fixture_dir, tmp_path, capsys):
        args = describe_args(fixture_dir, tmp_path / "x.jsonl")
        idx = args.index("--atlas")
        del args[idx : idx + 2]
        args[0] = "generate"
        assert main(args + ["--seed", "1"]) == 2
        assert "needs --atlas" in capsys.readouterr().err

    def test_env_var_supplies_data_dir(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("BRAINVQA_DATA_DIR", str(fixture_dir / "studies"))
        out = tmp_path / "env.jsonl"
        args = describe_args(fixture_dir, out)
        idx = args.index("--data-dir")
        del args[idx : idx + 2]
        assert main(args) == 0
        assert out.read_text() == GOLDEN.read_text()


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

    def test_split_from_studies_file(self, tmp_path):
        studies = tmp_path / "studies.txt"
        studies.write_text("".join(f"s{i}\n" for i in range(10)))
        out = tmp_path / "split.json"
        assert main(["split", "--seed", "3", "--studies", str(studies),
                     "--out", str(out)]) == 0
        assignment = json.loads(out.read_text())
        counts = {p: sum(1 for v in assignment.values() if v == p)
                  for p in ("train", "val", "test")}
        assert counts == {"train": 8, "val": 1, "test": 1}

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

    def test_moe_check_nan_gradient_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "finite_difference_errors",
                            lambda model, batch, picks: {"a": 0.0, "b": float("nan")})
        assert main(["moe-check", "--seed", "0", "--configs", "1",
                     "--prompts", "20", "--experts", "4"]) == EXIT_NUMERIC
        row = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("gradient"))
        assert "nan" in row and row.endswith("FAIL")

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
