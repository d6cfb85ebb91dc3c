"""Command-line entry point.

Every generating command is a pure function of (inputs, config, seed):
reruns are byte-identical, worker count never changes output, and files are
written atomically (temp + rename).  Exit codes: 2 configuration, 3 data,
4 numeric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, fileio
from .errors import (
    BrainVQAError,
    ConfigError,
    FormatError,
    GeometryError,
    TrainingError,
)
from .metrics import (
    BOOTSTRAP_RESAMPLES,
    PredictionRecord,
    cohen_kappa,
    evaluate_predictions,
    heatmap_to_csv,
    routing_heatmap,
)
from .moe import (
    embed_text,
    high_route,
    init_moe_params,
    load_checkpoint,
    moe_forward,
    moe_forward_oracle,
    save_checkpoint,
    token_count_comparison,
)
from .nifti import LabelMask, Volume3D, conform_all_to_ras, conform_to_ras, read_nifti_file
from .qagen import (
    TaskDescriptors,
    _check_types,
    _strings,
    compute_descriptors,
    dataset_stats,
    descriptor_from_json,
    descriptor_to_json,
    generate_dataset,
    record_from_json,
    record_to_json,
    split_dataset,
    stats_to_csv,
)
from .regions import Atlas, DEFAULT_MIN_OVERLAP_VOXELS, load_label_map
from .rng import stream
from .surface import marching_cubes, write_off
from .templates import TASKS, UNSPECIFIED, default_bank, load_bank
from .training import evaluate, finite_difference_errors, make_toy_task, smoothed, train_toy

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

GLI_LABEL_NAMES = ("Enhancing Tissue", "Non-enhancing Tumor Core",
                   "Surrounding FLAIR Hyperintensity", "Resection Cavity")


def atomic_write(path, text: str) -> None:
    """Write one CLI output file atomically.

    The CLI's outputs go through this function of its own, not straight to
    :func:`fileio.atomic_write`, so that per-layer traces (``perfbench``)
    attribute them to the ``cli`` layer.
    """
    fileio.atomic_write(path, text)


def _stanza(command: str, args: argparse.Namespace) -> str:
    resolved = {k: str(v) for k, v in sorted(vars(args).items()) if k != "func"}
    digest = hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()[:12]
    seed = resolved.get("seed", "-")
    return f"# brainvqa v{__version__} | command={command} | seed={seed} | config_hash={digest}"


def _read_jsonl(path, parse, scored=None) -> list:
    """``parse`` applied to the object decoded from every non-blank line of a UTF-8 JSONL file.

    A line that is not UTF-8 JSON, is not an object, lacks a key, or holds a
    value ``parse`` rejects (``TypeError``, ``ValueError``, or
    ``OverflowError`` for an infinite count) raises FormatError naming the
    file and line.

    With a set of ``scored`` ids, every object must still have a string
    ``id``, but only the objects whose ``id`` is in ``scored`` go through
    ``parse``; the others are dropped unparsed.
    """
    items = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise TypeError("line is not a JSON object")
                if scored is not None:
                    if not isinstance(d["id"], str):
                        raise TypeError(f"id must be a string, not {d['id']!r}")
                    if d["id"] not in scored:
                        continue
                items.append(parse(d))
            except KeyError as exc:
                raise FormatError(f"{path}:{lineno}: missing key {exc}") from None
            except (ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return items


PREDICTION_FIELDS = ("volume", "regions", "shape", "spread", "oos")
_PREDICTION_TYPES = {"id": (str,), **dict.fromkeys(PREDICTION_FIELDS, (str, type(None))),
                     "regions": (list, str, type(None))}


def _prediction_from_json(d: dict) -> PredictionRecord:
    """One decoded prediction; a field not of its ``PredictionRecord`` type is a TypeError."""
    _check_types(d, _PREDICTION_TYPES)
    regions = d.get("regions")
    return PredictionRecord(
        id=d["id"], volume=d.get("volume"),
        regions=_strings("regions", regions) if isinstance(regions, list) else regions,
        shape=d.get("shape"), spread=d.get("spread"), oos=d.get("oos"),
    )


def _load_atlas(args) -> Atlas:
    atlas_vol = read_nifti_file(args.atlas)
    atlas_vol = conform_to_ras(atlas_vol, (args.spacing,) * 3)
    region_map = load_label_map(args.region_map, "region map")
    mask = LabelMask(_integer_labels(atlas_vol), dict(region_map))
    return Atlas(labels=mask, region_map=region_map)


def _integer_labels(vol: Volume3D) -> Volume3D:
    """A float label volume truncated to int32; an integer one as it was parsed."""
    if vol.data.dtype.kind != "f":
        return vol
    return Volume3D(header=vol.header, data=vol.data.astype(np.int32))


def _study_dirs(data_dir) -> list[Path]:
    root = Path(data_dir)
    if not root.is_dir():
        raise ConfigError(f"data dir {root} does not exist")
    dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not dirs:
        raise ConfigError(f"data dir {root} contains no study directories")
    return dirs


def _find_volume(study_dir: Path, stem: str) -> Path:
    for suffix in (".nii.gz", ".nii"):
        candidate = study_dir / f"{stem}{suffix}"
        if candidate.is_file():
            return candidate
    raise FormatError(f"{study_dir} has no {stem}.nii[.gz]")


def _describe_study(study_dir: Path, labels, atlas, args):
    spacing = (args.spacing,) * 3
    brain, seg = conform_all_to_ras(
        [read_nifti_file(_find_volume(study_dir, stem)) for stem in ("t1", "seg")], spacing)
    if brain.header.dims != seg.header.dims:
        raise GeometryError(f"brain grid {brain.header.dims} != mask grid {seg.header.dims}")
    brain_voxels = int(np.count_nonzero(brain.data))
    del brain  # describe reads only the count: the geometry runs without the full grid
    mask = LabelMask(_integer_labels(seg), dict(labels))
    mesh_out = getattr(args, "mesh_out", None)
    if mesh_out:
        _export_meshes(study_dir.name, mask, spacing, Path(mesh_out))
    return compute_descriptors(study_dir.name, brain_voxels, mask, atlas, args.min_overlap)


def _export_meshes(study_id: str, mask: LabelMask, spacing, out_dir: Path) -> None:
    """One OFF mesh per present label, meshed on its bounding-box crop.

    At unit spacing the vertices are half-integers, so shifting then scaling is exact.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    split = mask.label_coords()
    for label, name in sorted(mask.label_names.items()):
        coords = split[label]
        if coords.shape[0] == 0:
            continue
        lo = coords.min(axis=0)
        crop = np.zeros(tuple(coords.max(axis=0) - lo + 1), dtype=bool)
        crop[tuple((coords - lo).T)] = True
        mesh = marching_cubes(crop)
        mesh.vertices = (mesh.vertices + lo) * np.asarray(spacing, dtype=np.float64)
        stem = name.replace(" ", "_").replace("/", "-")
        write_off(mesh, out_dir / f"{study_id}_{stem}.off")


def _compute_all_descriptors(args) -> tuple[list[TaskDescriptors], list[dict]]:
    for flag in ("--data-dir", "--labels-config", "--atlas", "--region-map"):
        if getattr(args, flag[2:].replace("-", "_")) is None:
            raise ConfigError(f"describing studies needs {flag}")
    labels = load_label_map(args.labels_config, "labels config")
    atlas = _load_atlas(args)
    dirs = _study_dirs(args.data_dir)

    def work(study_dir: Path):
        # One study's failure, of any kind, must not end the corpus: it is
        # recorded instead, with the traceback when it may be a fault of the
        # program (neither a BrainVQAError nor an OSError, which names the file).
        try:
            return study_dir.name, _describe_study(study_dir, labels, atlas, args), None
        except Exception as exc:
            failure = {"study_id": study_dir.name, "error_type": type(exc).__name__,
                       "error": str(exc)}
            if not isinstance(exc, (BrainVQAError, OSError)):
                failure["traceback"] = traceback.format_exc()
            return study_dir.name, None, failure

    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(work, dirs))
    else:
        results = [work(d) for d in dirs]
    results.sort(key=lambda r: r[0])
    descriptors: list[TaskDescriptors] = []
    failures: list[dict] = []
    for _, descs, failure in results:
        if failure is not None:
            failures.append(failure)
        else:
            descriptors.extend(descs)
    if not descriptors:
        raise FormatError(f"every study failed; first error: {failures[0]['error']}")
    return descriptors, failures


def _write_failures(out_path, failures: list[dict]) -> None:
    if failures:
        report = json.dumps({"failures": failures}, indent=2)
        atomic_write(str(out_path) + ".failures.json", report)
        print(f"warning: {len(failures)} studies failed; see {out_path}.failures.json",
              file=sys.stderr)


def cmd_describe(args) -> int:
    print(_stanza("describe", args))
    descriptors, failures = _compute_all_descriptors(args)
    lines = [descriptor_to_json(d) for d in descriptors]
    atomic_write(args.out, "\n".join(lines) + "\n")
    _write_failures(args.out, failures)
    print(f"wrote {len(descriptors)} descriptors to {args.out}")
    return 0


def cmd_generate(args) -> int:
    print(_stanza("generate", args))
    if not args.descriptors and not args.data_dir:
        raise ConfigError("provide --descriptors or --data-dir")
    if args.descriptors:  # precomputed descriptors win over a data dir default
        descriptors = _read_jsonl(args.descriptors, descriptor_from_json)
        if not descriptors:
            raise FormatError(f"{args.descriptors} holds no descriptors")
        failures = []
    else:
        descriptors, failures = _compute_all_descriptors(args)
    bank = load_bank(args.bank) if args.bank else default_bank()
    records = generate_dataset(descriptors, bank, args.seed)
    atomic_write(args.out, "\n".join(record_to_json(r) for r in records) + "\n")
    _write_failures(args.out, failures)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_stats(args) -> int:
    print(_stanza("stats", args))
    records = _read_jsonl(args.input, record_from_json)
    stats = dataset_stats(records)
    atomic_write(args.out, stats_to_csv(stats))
    print(json.dumps(stats.summary, indent=2, sort_keys=True))
    print(f"wrote frequency table to {args.out}")
    return 0


def cmd_split(args) -> int:
    print(_stanza("split", args))
    if bool(args.descriptors) == bool(args.studies):
        raise ConfigError("provide exactly one of --descriptors or --studies")
    if args.descriptors:
        ids = sorted({d.study_id for d in _read_jsonl(args.descriptors, descriptor_from_json)})
    else:
        try:
            with open(args.studies, "r", encoding="utf-8") as fh:
                ids = sorted({line.strip() for line in fh if line.strip()})
        except UnicodeDecodeError as exc:
            raise ConfigError(f"studies list {args.studies} is not UTF-8 text: {exc}") from None
    assignment = split_dataset(ids, args.seed)
    atomic_write(args.out, json.dumps(assignment, indent=2, sort_keys=True) + "\n")
    counts = {part: sum(1 for v in assignment.values() if v == part)
              for part in ("train", "val", "test")}
    print(json.dumps(counts))
    return 0


def _kappa_section(gold_records, other_path) -> dict[str, float]:
    scored = {r.id for r in gold_records}
    other = {r.id: r for r in _read_jsonl(other_path, record_from_json, scored)}
    section = {}
    values = []
    for task in TASKS:
        pairs = []
        for rec in gold_records:
            twin = other.get(rec.id)
            if twin is None:
                continue
            a, b = rec.gold[task], twin.gold[task]
            if a == UNSPECIFIED or b == UNSPECIFIED:
                continue
            canon = lambda g: ",".join(sorted(g)) if isinstance(g, list) else str(g)
            pairs.append((canon(a), canon(b)))
        if pairs:
            kappa, _ = cohen_kappa([a for a, _ in pairs], [b for _, b in pairs])
            section[task] = 100.0 * kappa
            values.append(section[task])
    if values:
        section["mean"] = float(np.mean(values))
    return section


def cmd_eval(args) -> int:
    print(_stanza("eval", args))
    gold = _read_jsonl(args.gold, record_from_json)
    preds = _read_jsonl(args.pred, _prediction_from_json, {r.id for r in gold})
    report = evaluate_predictions(gold, preds, seed=args.seed, resamples=args.resamples)
    if args.kappa:
        report.kappa = _kappa_section(gold, args.kappa)
    # A file whose scored lines give no prediction value (a dataset, say) would
    # score every record as "no answer"; errors of single lines are reported first.
    if not any(getattr(p, name) is not None for p in preds for name in PREDICTION_FIELDS):
        raise FormatError(f"{args.pred}: no line gives a prediction ("
                          f"{', '.join(PREDICTION_FIELDS)}); is it a dataset?")
    atomic_write(args.out, report.to_json() + "\n")
    print(report.to_json())
    return 0


def cmd_moe_check(args) -> int:
    print(_stanza("moe-check", args))
    rng = stream(args.seed, "moe-check")
    rows = []

    # Fused output equals the explicit-loop formula evaluation.
    worst_fwd = 0.0
    for trial in range(args.configs):
        n = int(rng.choice([1, 2, 4, 16]))
        n_m = int(rng.choice([1, 2, 4]))
        n_i = int(rng.choice([1, 3, 8]))
        d_i, d_t = int(rng.integers(2, 6)), int(rng.integers(4, 9))
        params = init_moe_params(1000 + trial, n_experts=n, n_modalities=n_m,
                                 d_image=d_i, d_text=d_t, hidden=3)
        for arr in params.arrays.values():
            arr += 0.3 * rng.normal(size=arr.shape)
        v = rng.normal(size=(n_i, n_m, d_i))
        cls = rng.normal(size=(n_m, d_i))
        t = rng.normal(size=(d_t,))
        fused, trace = moe_forward(v, cls, t, params)
        worst_fwd = max(worst_fwd, float(np.abs(fused - moe_forward_oracle(v, cls, t, params)).max()))
        if abs(float(trace.pi_high.sum()) - 1.0) > 1e-6:
            worst_fwd = np.inf
    rows.append(("forward vs loop oracle (max abs)", worst_fwd, 1e-12))

    # Routing simplex over many prompts.
    params = init_moe_params(args.seed, n_experts=args.experts, n_modalities=4,
                             d_image=8, d_text=16)
    for arr in params.arrays.values():
        arr += 0.2 * rng.normal(size=arr.shape)
    prompts = rng.normal(size=(args.prompts, 16))
    devs = [abs(float(high_route(p, params).sum()) - 1.0) for p in prompts]
    rows.append(("softmax simplex deviation (max abs)", max(devs), 1e-6))

    # Sigmoid range and token-count invariance.
    worst_range = 0.0
    for n_m in (1, 2, 4, 8):
        p2 = init_moe_params(args.seed, n_experts=4, n_modalities=n_m, d_image=6, d_text=12)
        v = rng.normal(size=(5, n_m, 6))
        cls = rng.normal(size=(n_m, 6))
        fused, trace = moe_forward(v, cls, rng.normal(size=12), p2)
        if fused.shape != (5, 12):
            worst_range = np.inf
        for low in trace.pi_low:
            worst_range = max(worst_range, float(np.max(np.abs(low - 0.5))))
    rows.append(("pi_low distance from (0,1) interval", max(0.0, worst_range - 0.5), 0.0))

    # Gradient check against central finite differences.
    task = make_toy_task(seed=args.seed, n_train=5, n_val=2, n_positions=3,
                         n_modalities=2, d_image=41, d_text=41, n_experts=2,
                         hidden=4, noise=0.05)
    check_rng = stream(args.seed, "moe-check-fd")
    picks = {name: check_rng.choice(arr.size, size=min(8, arr.size), replace=False)
             for name, arr in task.model.all_arrays().items()}
    errors = finite_difference_errors(task.model, task.train, picks)
    worst_grad = float(np.max(list(errors.values())))  # NaN-propagating, unlike max()
    rows.append(("gradient vs finite differences (max rel)", worst_grad, 1e-4))

    comparison = token_count_comparison(8, 4)
    rows.append(("fused/concat token counts", 0.0, 0.0))
    print(f"{'check':48s} {'max error':>12s} {'threshold':>10s} verdict")
    failed = False
    for name, err, thr in rows:
        ok = err <= max(thr, 0.0) or (thr == 0.0 and err == 0.0)
        failed |= not ok
        print(f"{name:48s} {err:12.3e} {thr:10.0e} {'ok' if ok else 'FAIL'}")
    print(f"token counts at N_I=8, N_m=4: fused={comparison['fused_tokens']}, "
          f"concatenated={comparison['concatenated_tokens']}")
    return 0 if not failed else EXIT_NUMERIC


def cmd_moe_demo(args) -> int:
    print(_stanza("moe-demo", args))
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    if not np.isfinite(args.lr):
        raise ConfigError(f"--lr must be finite, got {args.lr}")
    task = make_toy_task(seed=args.seed)
    curve = train_toy(task.train, task.model, steps=args.steps, lr=args.lr,
                      val=task.val, eval_every=25, target_accuracy=args.target)
    accs = evaluate(task.model, task.val)
    lines = ["step,loss"] + [f"{i},{v:.8f}" for i, v in enumerate(curve)]
    atomic_write(args.out, "\n".join(lines) + "\n")
    if args.save_params:
        save_checkpoint(args.save_params, task.model.moe, extra={"seed": args.seed})
    sm = smoothed(curve, 50)
    print(f"steps run: {len(curve)}; loss {curve[0]:.4f} -> {curve[-1]:.6f}; "
          f"smoothed monotone: {bool(np.all(np.diff(sm) <= 1e-9))}")
    print("held-out accuracy: " + " ".join(f"{k}={v:.1f}%" for k, v in sorted(accs.items())))
    print(f"wrote loss curve to {args.out}")
    return 0


def cmd_heatmap(args) -> int:
    print(_stanza("heatmap", args))
    bank = load_bank(args.bank) if args.bank else default_bank()
    if args.params:
        params = load_checkpoint(args.params)
    else:
        params = init_moe_params(args.seed, n_experts=args.experts, n_modalities=4,
                                 d_image=16, d_text=args.d_text)
        warm = stream(args.seed, "heatmap-warm")
        for arr in params.arrays.values():
            arr += 0.5 * warm.normal(size=arr.shape)
    labels = args.labels or list(GLI_LABEL_NAMES)
    subsets = sorted({tuple(sorted(t.task_set)) for t in bank.multitask})
    prompts, names = [], []
    for label in labels:
        for subset in subsets:
            tpl = next(t for t in bank.multitask if tuple(sorted(t.task_set)) == subset)
            prompts.append(tpl.question.replace("{label}", label))
            names.append(f"{label}|{'+'.join(subset)}")
    traces = [high_route(embed_text(q, params.config.d_text), params) for q in prompts]
    corr, names, flags = routing_heatmap(traces, names)
    atomic_write(args.out, heatmap_to_csv(corr, names))
    for flag in flags:
        print(f"warning: {flag}", file=sys.stderr)
    print(f"wrote {corr.shape[0]}x{corr.shape[1]} correlation matrix to {args.out}")
    return 0


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-dir", default=os.environ.get("BRAINVQA_DATA_DIR"),
                   help="directory of study subdirectories (t1 + seg volumes); "
                        "defaults to $BRAINVQA_DATA_DIR")
    p.add_argument("--labels-config", help="JSON mapping mask integer labels to clinical names")
    p.add_argument("--atlas", help="atlas label volume (.nii/.nii.gz)")
    p.add_argument("--region-map", help="JSON mapping atlas labels to region names")
    p.add_argument("--spacing", type=float, default=1.0, help="isotropic working spacing in mm")
    p.add_argument("--min-overlap", type=int, default=DEFAULT_MIN_OVERLAP_VOXELS,
                   help="minimum intersecting voxels for a region to count")
    p.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brainvqa",
        description="Synthetic VQA datasets from 3D segmentation masks, plus a "
                    "verified mixture-of-experts fusion reference.",
    )
    parser.add_argument("--version", action="version", version=f"brainvqa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="compute per-(study,label) task descriptors")
    _add_geometry_flags(p)
    p.add_argument("--mesh-out", help="directory for per-label OFF surface meshes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("generate", help="emit the question-answer dataset as JSONL")
    _add_geometry_flags(p)
    p.add_argument("--descriptors", help="precomputed descriptor JSONL (skips geometry)")
    p.add_argument("--bank", help="template bank file (default: builtin bank)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="frequency table and aggregates for a dataset")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="study-level 80/10/10 split assignment")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--descriptors")
    p.add_argument("--studies", help="text file with one study id per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("eval", help="score predictions against gold records")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kappa", help="second annotation JSONL for agreement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resamples", type=int, default=BOOTSTRAP_RESAMPLES)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("moe-check", help="invariant and gradient suite for the fusion block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--experts", type=int, default=16)
    p.add_argument("--configs", type=int, default=25)
    p.add_argument("--prompts", type=int, default=10_000)
    p.set_defaults(func=cmd_moe_check)

    p = sub.add_parser("moe-demo", help="train the toy multi-task fixture, write loss CSV")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--target", type=float, default=95.0)
    p.add_argument("--out", required=True)
    p.add_argument("--save-params", help="write a parameter checkpoint here")
    p.set_defaults(func=cmd_moe_demo)

    p = sub.add_parser("heatmap", help="routing-correlation matrix over template prompts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bank")
    p.add_argument("--params", help="parameter checkpoint (default: seeded init)")
    p.add_argument("--experts", type=int, default=16)
    p.add_argument("--d-text", type=int, default=64)
    p.add_argument("--labels", nargs="+", help="label names (default: the four GLI labels)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IsADirectoryError, PermissionError) as exc:
        print(f"unreadable file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, GeometryError, BrainVQAError) as exc:
        if isinstance(exc, TrainingError):
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
