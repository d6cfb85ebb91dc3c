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

A descriptor or dataset-record field that is not of the JSON type its writer
emits (a number for a label name, ``[1, 2]`` for regions, ``true`` for a
count), or a ``schema_version`` other than the one it writes, ends every
command that reads it (``generate``, ``split``, ``stats``, ``eval`` and
``eval --kappa``) in exit 3, with the file, the line and the key in the
message.

A config file (labels config, region map) that is not UTF-8 JSON
of the right shape, or names a label with anything but a string, exits 2, and
a template bank that is not UTF-8 exits 3, each with one message line and no
output written.

At the command level, ``describe``, ``generate``, ``stats``, ``split``,
``eval`` and ``heatmap`` with one input replaced by a mutant end in exit 0
with strict JSON outputs, or in exit 2, 3 or 4 with one line and no output.
"""
from __future__ import annotations

import contextlib
import gzip
import io
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
from brainvqa.synthetic import write_fixture
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
    sample_questions(descriptor_from_json(json.loads(GOLDEN_LINES[0])), default_bank(), 0)[0]
)
GOLD_RECORD = record_from_json(json.loads(RECORD_LINE))
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


def string_id(raw: bytes) -> str | None:
    """The string ``id`` of ``raw`` when it decodes to a JSON object with one."""
    try:
        d = json.loads(raw)
    except (ValueError, RecursionError):
        return None
    return d["id"] if isinstance(d, dict) and isinstance(d.get("id"), str) else None


def read_jsonl_bytes(raw: bytes, parse) -> None:
    """``cli._read_jsonl`` on a file holding ``raw``: a value or a FormatError.

    The file is read in full, then as ``eval`` reads it with no id scored and
    with the line's own id scored.  Each prediction read is also scored
    against one gold record with the same id, which must end in a report or a
    FormatError too.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.jsonl"
        path.write_bytes(raw)
        for scored in (None, set(), {string_id(raw)}):
            try:
                items = cli._read_jsonl(path, parse, scored)
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
    "null-name": b'{"1": null}',
    "nested-null-name": b'{"labels": {"1": null}}',
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

    @pytest.mark.parametrize("command", [
        ["generate", "--descriptors", str(GOLDEN_PATH), "--seed", "1"], ["heatmap"],
    ], ids=["generate", "heatmap"])
    def test_bank_not_utf8_is_bank_error(self, tmp_path, capsys, command):
        bank, out = tmp_path / "bank.txt", tmp_path / "out"
        bank.write_bytes(BANK_TEXT.encode("utf-8") + b"# \xff\n")
        assert cli.main([*command, "--bank", str(bank), "--out", str(out)]) == 3
        assert_one_line_error(capsys, "data error", str(bank), "UTF-8")
        assert not out.exists()


# A field of the wrong JSON type, as (reader, key, value, command): the command
# reads a file whose one line, the first with a region list, carries the value.
MISTYPED_FIELDS = [
    ("record", "gold_regions", 5, "eval"),
    ("record", "gold_regions", [1, 2], "eval --kappa"),
    ("descriptor", "volume_bin", 3, "generate"),
    ("descriptor", "shape", ["round"], "generate"),
    ("descriptor", "spread", 1.5, "generate"),
    ("descriptor", "label_name", 7, "generate"),
    ("descriptor", "regions", [1, 2], "generate"),
    ("descriptor", "regions", "abc", "generate"),
    ("descriptor", "study_id", ["a"], "generate"),
    ("descriptor", "study_id", ["a"], "split"),
    ("descriptor", "n_components", True, "generate"),
    ("descriptor", "volume_fraction", True, "generate"),
    ("descriptor", "region_counts", {"frontal": "12"}, "generate"),
    ("descriptor", "region_counts", {"frontal": 1.7}, "generate"),
    ("descriptor", "region_counts", {"frontal": True}, "generate"),
    ("descriptor", "schema_version", 99, "generate"),
    ("descriptor", "schema_version", 2, "split"),
    ("descriptor", "schema_version", True, "generate"),
    ("descriptor", "shape_metrics", "garbage", "generate"),
    ("descriptor", "shape_metrics", [1.0], "split"),
    ("record", "schema_version", 2, "stats"),
    ("record", "schema_version", 2, "eval"),
    ("record", "schema_version", "1", "eval --kappa"),
]


class TestMistypedJsonlFields:
    """A field not of the JSON type its writer emits exits 3, naming file, line and key."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory) -> Path:
        root = tmp_path_factory.mktemp("typed")
        data = root / "data.jsonl"
        assert cli.main(["generate", "--descriptors", str(GOLDEN_PATH), "--seed", "5",
                         "--out", str(data)]) == 0
        preds = root / "pred.jsonl"
        preds.write_text("".join(
            json.dumps({"id": r["id"], "volume": r["gold_volume"], "regions": r["gold_regions"]})
            + "\n" for r in map(json.loads, data.read_text().splitlines())))
        return data

    @pytest.mark.parametrize("reader, key, value, command", MISTYPED_FIELDS,
                             ids=[f"{c}-{k}-{v}" for _, k, v, c in MISTYPED_FIELDS])
    def test_exit_3_naming_the_key(self, dataset, tmp_path, capsys, reader, key, value, command):
        good = dataset if reader == "record" else GOLDEN_PATH
        region_key = "gold_regions" if reader == "record" else "regions"
        rows = [json.loads(line) for line in good.read_text().splitlines()]
        lineno = next(i for i, row in enumerate(rows, 1) if isinstance(row[region_key], list))
        rows[lineno - 1][key] = value
        bad = tmp_path / f"bad_{good.name}"
        bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = str(tmp_path / "out")
        argv = {
            "eval": ["eval", "--gold", str(bad), "--pred", str(dataset.parent / "pred.jsonl")],
            "eval --kappa": ["eval", "--gold", str(dataset), "--pred",
                             str(dataset.parent / "pred.jsonl"), "--kappa", str(bad)],
            "generate": ["generate", "--descriptors", str(bad), "--seed", "1"],
            "split": ["split", "--descriptors", str(bad), "--seed", "1"],
            "stats": ["stats", "--in", str(bad)],
        }[command]
        assert cli.main(argv + ["--out", out]) == 3
        assert_one_line_error(capsys, "data error", f"{bad}:{lineno}: {key} must be")
        assert not Path(out).exists()


# Each command with its input files, named relative to the corpus that
# ``contract_corpus`` writes ("{in}" is that corpus, "{out}" an empty directory).
COMMAND_INPUTS = {
    "describe": (["describe", "--data-dir", "{in}/studies", "--labels-config", "{in}/labels.json",
                  "--atlas", "{in}/atlas.nii.gz", "--region-map", "{in}/region_map.json",
                  "--out", "{out}/descriptors.jsonl"],
                 ("labels.json", "atlas.nii.gz", "region_map.json",
                  "studies/study_0000/seg.nii.gz", "studies/study_0001/t1.nii.gz")),
    "generate": (["generate", "--descriptors", "{in}/descriptors.jsonl", "--bank",
                  "{in}/bank.txt", "--seed", "1", "--out", "{out}/data.jsonl"],
                 ("descriptors.jsonl", "bank.txt")),
    "stats": (["stats", "--in", "{in}/data.jsonl", "--out", "{out}/frequencies.csv"],
              ("data.jsonl",)),
    "split": (["split", "--seed", "1", "--descriptors", "{in}/descriptors.jsonl",
               "--out", "{out}/split.json"], ("descriptors.jsonl",)),
    "eval": (["eval", "--gold", "{in}/gold.jsonl", "--pred", "{in}/pred.jsonl", "--kappa",
              "{in}/kappa.jsonl", "--resamples", "20", "--out", "{out}/report.json"],
             ("gold.jsonl", "pred.jsonl", "kappa.jsonl")),
    "heatmap": (["heatmap", "--params", "{in}/params.bvqm", "--bank", "{in}/bank.txt",
                 "--out", "{out}/heatmap.csv"], ("params.bvqm", "bank.txt")),
}


def strict_json(text: str):
    """``json.loads`` that refuses ``NaN`` and ``Infinity``, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def run_quietly(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout dropped: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class TestCommandContract:
    """One input of a command replaced by a mutant ends in exit 0 with strict
    JSON outputs, or in exit 2, 3 or 4 with one stderr line and no output."""

    @pytest.fixture(scope="class")
    def contract_corpus(self, tmp_path_factory) -> Path:
        root = tmp_path_factory.mktemp("contract")
        write_fixture(root, n_studies=2, seed=7, dims=(24, 24, 24))
        (root / "bank.txt").write_text(BANK_TEXT, encoding="utf-8")
        save_checkpoint(root / "params.bvqm", init_moe_params(
            0, n_experts=2, n_modalities=4, d_image=4, d_text=8, hidden=2))
        for argv in (COMMAND_INPUTS["describe"][0], COMMAND_INPUTS["generate"][0]):
            assert run_quietly([a.format(**{"in": root, "out": root}) for a in argv])[0] == 0
        rows = [json.loads(line) for line in (root / "data.jsonl").read_text().splitlines()]
        (root / "pred.jsonl").write_text("".join(
            json.dumps({"id": r["id"], "volume": r["gold_volume"], "regions": r["gold_regions"],
                        "shape": r["gold_shape"], "spread": r["gold_spread"],
                        "oos": r["oos_kind"]}) + "\n" for r in rows))
        for name in ("gold.jsonl", "kappa.jsonl"):
            (root / name).write_bytes((root / "data.jsonl").read_bytes())
        return root

    @pytest.mark.parametrize("command", sorted(COMMAND_INPUTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_input_ends_in_output_or_one_line_error(self, contract_corpus, command,
                                                            data):
        argv, inputs = COMMAND_INPUTS[command]
        slot = data.draw(st.sampled_from(inputs), label="slot")
        files = sorted(str(p.relative_to(contract_corpus))
                       for p in contract_corpus.rglob("*") if p.is_file())
        with tempfile.TemporaryDirectory() as tmp:
            root, out = Path(tmp) / "in", Path(tmp) / "out"
            out.mkdir()
            for name in files:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                if name != slot:
                    (root / name).symlink_to(contract_corpus / name)
            mutation = data.draw(st.sampled_from(["bytes", "directory", "other file"]),
                                 label="mutation")
            if mutation == "bytes":
                raw = (contract_corpus / slot).read_bytes()
                (root / slot).write_bytes(data.draw(mutated(raw), label="bytes"))
            elif mutation == "directory":
                (root / slot).mkdir()
            else:
                other = data.draw(st.sampled_from([f for f in files if f != slot]),
                                  label="other file")
                (root / slot).write_bytes((contract_corpus / other).read_bytes())
            code, err = run_quietly([a.format(**{"in": root, "out": out}) for a in argv])
            written = sorted(out.iterdir())
            if code == 0:
                for path in written:
                    if path.suffix == ".json":
                        strict_json(path.read_text("utf-8"))
                    elif path.suffix == ".jsonl":
                        for line in path.read_text("utf-8").splitlines():
                            strict_json(line)
            else:
                assert code in (2, 3, 4) and err.count("\n") == 1, (code, err)
                assert written == [], written

