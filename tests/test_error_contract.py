"""Any bytes given to a reader end in a value or a BrainVQAError, in bounded memory.

Covers ``parse_nifti`` (raw and gzip-wrapped), ``load_checkpoint``,
``parse_bank`` and the JSONL readers (descriptors, dataset records,
predictions) with arbitrary bytes and with mutations of valid inputs, plus
gzip bombs and headers whose dims declare multi-GB payloads.  A JSONL reader
must end in a value or a FormatError, which the CLI maps to exit code 3.

Non-finite numbers have the same contract: a checkpoint holding NaN or
infinity is a FormatError, a training run whose parameters end non-finite is
a TrainingError (exit 4), and ``moe-demo`` refuses a step count below 1 or a
non-finite learning rate (exit 2) before it writes anything.

A config file (labels config, region map, study list) that is not UTF-8 JSON
of the right shape exits 2, and a template bank that is not UTF-8 exits 3,
each with one message line and no output written.
"""
from __future__ import annotations

import gzip
import json
import struct
import tempfile
import tracemalloc
import zlib
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainvqa import cli
from brainvqa.errors import BrainVQAError, FormatError, TrainingError, TruncatedFileError
from brainvqa.metrics import evaluate_predictions
from brainvqa.moe import init_moe_params, load_checkpoint, save_checkpoint
from brainvqa.nifti import HEADER_SIZE, Volume3D, parse_nifti, write_nifti
from brainvqa.qagen import descriptor_from_json, record_from_json, record_to_json, sample_questions
from brainvqa.templates import default_bank, parse_bank
from brainvqa.training import make_toy_task, train_toy

VALID_NIFTI = write_nifti(
    Volume3D.from_array(np.arange(60, dtype=np.int16).reshape(3, 4, 5), pixdim=(1.0, 1.5, 2.0))
)
BANK_TEXT = resources.files("brainvqa.data").joinpath("default_bank.txt").read_text("utf-8")


def _valid_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.bin"
        save_checkpoint(path, init_moe_params(0, n_experts=2, n_modalities=2, d_image=3,
                                              d_text=4, hidden=2))
        return path.read_bytes()


VALID_CHECKPOINT = _valid_checkpoint()


def gzip_members(*parts: bytes) -> bytes:
    return b"".join(gzip.compress(p, mtime=0) for p in parts)


def header_declaring(dims, datatype=64, bitpix=64) -> bytes:
    """A valid single-file header for ``dims`` (float64 by default) and no payload."""
    raw = bytearray(VALID_NIFTI[:352])
    struct.pack_into("<8h", raw, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into("<hh", raw, 70, datatype, bitpix)
    return bytes(raw)


def peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return peak


def ends_in_value_or_error(fn, *args) -> None:
    try:
        fn(*args)
    except BrainVQAError:
        pass


@st.composite
def mutated(draw, valid: bytes, region: int | None = None):
    """``valid`` with a few bytes overwritten (within the first ``region`` bytes) and maybe cut."""
    raw = bytearray(valid)
    span = len(raw) if region is None else region
    for _ in range(draw(st.integers(1, 6))):
        raw[draw(st.integers(0, span - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        raw = raw[: draw(st.integers(0, len(raw)))]
    return bytes(raw)


class TestNiftiBytes:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=800))
    def test_arbitrary_bytes(self, raw):
        ends_in_value_or_error(parse_nifti, raw)
        ends_in_value_or_error(parse_nifti, gzip.compress(raw, mtime=0))

    @settings(max_examples=150, deadline=None)
    @given(mutated(VALID_NIFTI, region=HEADER_SIZE))
    def test_mutated_headers(self, raw):
        ends_in_value_or_error(parse_nifti, raw)
        ends_in_value_or_error(parse_nifti, gzip.compress(raw, mtime=0))

    @settings(max_examples=60, deadline=None)
    @given(mutated(gzip.compress(VALID_NIFTI, mtime=0)))
    def test_mutated_gzip_streams(self, raw):
        ends_in_value_or_error(parse_nifti, raw)

    @pytest.mark.parametrize("dims", [(32767, 32767, 32767), (2048, 2048, 1024), (1, 1, 30000)])
    def test_multi_gb_header_is_truncated_without_allocating(self, dims):
        raw = header_declaring(dims) + b"\x00" * 64
        for data in (raw, gzip.compress(raw, mtime=0)):
            with pytest.raises(TruncatedFileError):
                parse_nifti(data)
            assert peak_mb(ends_in_value_or_error, parse_nifti, data) < 1.0

    @pytest.mark.parametrize("vox_offset", [1e38, 2.0**63])
    def test_vox_offset_past_any_stream_is_truncated(self, vox_offset):
        raw = bytearray(VALID_NIFTI)
        struct.pack_into("<f", raw, 108, vox_offset)
        for data in (bytes(raw), gzip.compress(bytes(raw), mtime=0)):
            with pytest.raises(TruncatedFileError):
                parse_nifti(data)

    @pytest.mark.parametrize("vox_offset", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_vox_offset_is_format_error(self, vox_offset):
        raw = bytearray(VALID_NIFTI)
        struct.pack_into("<f", raw, 108, vox_offset)
        with pytest.raises(FormatError, match="vox_offset"):
            parse_nifti(bytes(raw))

    def test_gzip_bomb_inflates_only_the_declared_size(self):
        one_voxel = write_nifti(Volume3D.from_array(np.full((1, 1, 1), 7, dtype=np.int16)))
        packer = zlib.compressobj(9, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
        chunks = [packer.compress(one_voxel)]
        zeros = bytes(1 << 20)
        chunks += [packer.compress(zeros) for _ in range(64)]
        bomb = b"".join(chunks) + packer.flush()
        assert len(bomb) < 1 << 20
        assert peak_mb(parse_nifti, bomb) < 8.0
        assert parse_nifti(bomb).data.tolist() == [[[7]]]

    def test_members_are_read_across(self):
        split = gzip_members(VALID_NIFTI[:100], VALID_NIFTI[100:400], VALID_NIFTI[400:])
        assert np.array_equal(parse_nifti(split).data, parse_nifti(VALID_NIFTI).data)

    def test_trailing_garbage_after_the_member_is_format_error(self):
        with pytest.raises(FormatError):
            parse_nifti(gzip.compress(VALID_NIFTI, mtime=0) + b"not gzip")

    def test_stream_cut_after_the_payload_is_truncated(self):
        with pytest.raises(TruncatedFileError):
            parse_nifti(gzip.compress(VALID_NIFTI, mtime=0)[:-8])


class TestCheckpointBytes:
    @staticmethod
    def load(raw: bytes) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "params.bin"
            path.write_bytes(raw)
            load_checkpoint(path)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=400))
    def test_arbitrary_bytes(self, raw):
        ends_in_value_or_error(self.load, raw)

    @settings(max_examples=150, deadline=None)
    @given(mutated(VALID_CHECKPOINT))
    def test_mutated_checkpoints(self, raw):
        ends_in_value_or_error(self.load, raw)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_checkpoint_value_is_format_error(self, tmp_path, capsys, value):
        params = init_moe_params(0, n_experts=2, n_modalities=2, d_image=3, d_text=4, hidden=2)
        params.arrays["expert1.Wm"].flat[2] = value
        path, out = tmp_path / "params.bvqm", tmp_path / "heatmap.csv"
        save_checkpoint(path, params)
        with pytest.raises(FormatError, match="expert1.Wm"):
            load_checkpoint(path)
        assert cli.main(["heatmap", "--params", str(path), "--out", str(out)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", [np.inf, np.nan])
    def test_train_toy_refuses_non_finite_parameters(self, lr):
        task = make_toy_task(seed=1, n_train=6, n_val=4, n_positions=3, d_image=41,
                             d_text=41, n_experts=2, hidden=4)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="not finite"):
            train_toy(task.train, task.model, steps=1, lr=lr)

    @pytest.mark.parametrize("flags, code", [
        (["--steps", "0"], 2), (["--steps", "-3"], 2), (["--lr", "nan"], 2),
        (["--lr", "inf"], 2), (["--lr=-inf"], 2), (["--steps", "2", "--lr", "1e300"], 4),
    ])
    def test_moe_demo_writes_nothing(self, tmp_path, capsys, flags, code):
        out, params = tmp_path / "curve.csv", tmp_path / "params.bvqm"
        argv = ["moe-demo", "--steps", "1", *flags, "--target", "0", "--out", str(out),
                "--save-params", str(params)]
        with np.errstate(all="ignore"):
            assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert ("configuration error" if code == 2 else "numeric failure") in err
        assert not out.exists() and not params.exists()


class TestBankText:
    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=400))
    def test_arbitrary_text(self, text):
        ends_in_value_or_error(parse_bank, text)

    @settings(max_examples=100, deadline=None)
    @given(mutated(BANK_TEXT.encode("utf-8")))
    def test_mutated_banks(self, raw):
        ends_in_value_or_error(parse_bank, raw.decode("utf-8", errors="replace"))


GOLDEN_PATH = Path(__file__).parent / "data" / "golden_descriptors.jsonl"
GOLDEN_LINES = GOLDEN_PATH.read_text("utf-8").splitlines()
DESCRIPTOR_LINES = (
    GOLDEN_LINES[0],
    next(line for line in GOLDEN_LINES if '"volume_bin":"N/A"' in line),
)
RECORD_LINE = record_to_json(
    sample_questions(descriptor_from_json(GOLDEN_LINES[0]), default_bank(), 0)[0]
)
GOLD_RECORD = record_from_json(RECORD_LINE)
PREDICTION_LINE = json.dumps({"id": "study_0000/Enhancing Tissue/0", "volume": "1-5%",
                              "regions": ["frontal"], "shape": "round",
                              "spread": "single lesion", "oos": None})
READERS = {
    "descriptor": (descriptor_from_json, DESCRIPTOR_LINES),
    "record": (record_from_json, (RECORD_LINE,)),
    "prediction": (cli._prediction_from_json, (PREDICTION_LINE,)),
}

# Values at the edges of what the readers convert, and then any JSON value,
# including the NaN and Infinity that ``json`` reads and writes.
EDGE_VALUES = (None, True, 0, -1, 2**64, 1e308, float("inf"), float("nan"), "", "N/A",
               [], {}, [None], {"": None}, {"frontal": float("inf")})
json_values = st.recursive(
    st.sampled_from(EDGE_VALUES) | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)


@st.composite
def one_field_mutants(draw, line: str) -> bytes:
    """``line`` with one top-level field dropped, replaced or added."""
    fields = json.loads(line)
    key = draw(st.sampled_from(sorted(fields)) | st.text(max_size=6))
    if key in fields and draw(st.booleans()):
        del fields[key]
    else:
        fields[key] = draw(json_values)
    return json.dumps(fields).encode("utf-8")


def read_jsonl_bytes(raw: bytes, parse) -> None:
    """``cli._read_jsonl`` on a file holding ``raw``: a value or a FormatError.

    Each prediction it reads is also scored against one gold record with the
    same id, which must end in a report or a FormatError too.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.jsonl"
        path.write_bytes(raw)
        try:
            items = cli._read_jsonl(path, parse)
            if parse is cli._prediction_from_json:
                for pred in items:
                    evaluate_predictions([replace(GOLD_RECORD, id=pred.id)], [pred],
                                         resamples=3)
        except FormatError:
            pass


class TestJsonlReaders:
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_valid_lines_parse(self, kind):
        parse, lines = READERS[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lines.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert len(cli._read_jsonl(path, parse)) == len(lines)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_every_field_at_every_edge_value(self, kind):
        parse, lines = READERS[kind]
        for line in lines:
            fields = json.loads(line)
            for key in sorted(fields):
                for value in EDGE_VALUES:
                    read_jsonl_bytes(json.dumps({**fields, key: value}).encode("utf-8"), parse)
                read_jsonl_bytes(json.dumps({k: v for k, v in fields.items() if k != key})
                                 .encode("utf-8"), parse)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(max_examples=40, deadline=None)
    @given(raw=st.binary(max_size=300))
    def test_arbitrary_bytes(self, kind, raw):
        read_jsonl_bytes(raw, READERS[kind][0])

    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_one_field_mutations(self, kind, data):
        parse, lines = READERS[kind]
        line = data.draw(st.sampled_from(lines))
        read_jsonl_bytes(data.draw(one_field_mutants(line)), parse)


def assert_one_line_error(capsys, prefix: str, *fragments: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert all(fragment in err for fragment in fragments), err


MALFORMED_JSON = {
    "invalid-json": b'{"1": "lesion",',
    "not-utf8": b'{"1": "l\xe9sion"}',
    "json-list": b'["lesion"]',
}


class TestConfigFiles:
    @pytest.mark.parametrize("content", sorted(MALFORMED_JSON))
    @pytest.mark.parametrize("flag", ["--labels-config", "--region-map"])
    def test_malformed_label_map_is_config_error(self, tmp_path, capsys, flag, content):
        files = {"--labels-config": tmp_path / "labels.json",
                 "--region-map": tmp_path / "region_map.json",
                 "--atlas": tmp_path / "atlas.nii"}
        files["--labels-config"].write_text('{"labels": {"1": "lesion"}}', encoding="utf-8")
        files["--region-map"].write_text('{"1": "frontal"}', encoding="utf-8")
        files["--atlas"].write_bytes(VALID_NIFTI)
        files[flag].write_bytes(MALFORMED_JSON[content])
        (tmp_path / "studies").mkdir()
        out = tmp_path / "descriptors.jsonl"
        argv = ["describe", "--data-dir", str(tmp_path / "studies"), "--out", str(out)]
        for name, path in files.items():
            argv += [name, str(path)]
        assert cli.main(argv) == 2
        assert_one_line_error(capsys, "configuration error", str(files[flag]))
        assert not out.exists()

    def test_study_list_not_utf8_is_config_error(self, tmp_path, capsys):
        studies, out = tmp_path / "studies.txt", tmp_path / "split.json"
        studies.write_bytes(b"study_0000\nstudy_\xff\n")
        assert cli.main(["split", "--seed", "1", "--studies", str(studies),
                         "--out", str(out)]) == 2
        assert_one_line_error(capsys, "configuration error", str(studies), "UTF-8")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["generate", "--descriptors", str(GOLDEN_PATH), "--seed", "1"], ["heatmap"],
    ], ids=["generate", "heatmap"])
    def test_bank_not_utf8_is_bank_error(self, tmp_path, capsys, command):
        bank, out = tmp_path / "bank.txt", tmp_path / "out"
        bank.write_bytes(BANK_TEXT.encode("utf-8") + b"# \xff\n")
        assert cli.main([*command, "--bank", str(bank), "--out", str(out)]) == 3
        assert_one_line_error(capsys, "data error", str(bank), "UTF-8")
        assert not out.exists()
