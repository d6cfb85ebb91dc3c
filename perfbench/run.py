#!/usr/bin/env python3
"""brainvqa benchmark: four seeded workloads over the CLI chain and the MoE trainer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run generates its inputs from ``--seed``
(timed as ``setup_s``), runs whole passes of the workload's chain in-process
through ``brainvqa.cli.main`` until ``--seconds`` would be exceeded (at least
one pass), checks every output, and prints one JSON object as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics of untraced
passes; ``--trace 1`` runs one untraced reference pass, then traced passes,
and reports per-layer metrics (self time and counts per module) plus the
tracing overhead.  Human-readable lines go before the JSON line.

Workloads, their generator parameters and the metrics are documented in
``perfbench/README.md``; ``WORKLOADS`` below is the source of truth.
"""
from __future__ import annotations

import os

# One BLAS thread: the only threads are the ones a workload asks for with
# --workers, so a run uses at most two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import copy
import io
import json
import re
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# Bookkeeping shared by every workload

@dataclass
class Pass:
    """One pass of a workload's chain.

    ``wall`` sums the timed program calls only; the benchmark's own glue
    between calls (writing the prediction file) is outside it.  ``items``
    counts the work of the workload's headline stage and ``scored`` that of
    its evaluation stage.  ``item_rates`` and ``scored_rates`` are the rates
    of the timed samples of each stage in this pass (one per stage call, or
    one per training step or routing); the run reports the median over the
    samples of all its passes.
    """

    wall: float = 0.0
    items: int = 0
    item_rates: list = field(default_factory=list)
    scored: int = 0
    scored_rates: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


class Checks:
    """Counts operations and checks; a failed check is printed, never silent."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def cli_call(argv, p: Pass) -> tuple[int, str, float]:
    """Run one CLI command in-process; returns (exit code, stdout, seconds)."""
    from brainvqa import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main([str(a) for a in argv])
        seconds = time.perf_counter() - start
    p.wall += seconds
    return code, out.getvalue(), seconds


def read_outputs(p: Pass, out: Path) -> None:
    for f in sorted(out.iterdir()):
        if f.is_file():
            p.outputs[f.name] = f.read_bytes()


class Workload:
    """Generates inputs (``setup``), runs one pass of the chain, checks it."""

    def __init__(self, name: str, params: dict):
        self.name, self.params = name, params

    def expected(self, inp: dict) -> dict:
        """Reference values computed from the inputs alone, before any pass."""
        return {}

    def step_flops(self, inp: dict) -> int:
        return 0


# ---------------------------------------------------------------------------
# Geometry workloads: describe -> generate -> stats -> eval

class Geometry(Workload):
    def setup(self, root: Path, seed: int) -> dict:
        import inputs

        (root / "studies").mkdir(parents=True)
        p = self.params
        if p["kind"] == "brats":
            segs = inputs.write_brats_corpus(root, seed, p["dims"], p["flair_voxels"])
            return {"root": root, "segs": segs, "affine": None}
        made = inputs.write_scatter_corpus(root, seed, p["dims"], p["studies"], p["pixdim"],
                                           p["degrees"], p["components_per_label"])
        return {"root": root, **made}

    def expected(self, inp: dict) -> dict:
        """Per (study, label name): voxel count, component count and brain voxels.

        Labels come from the generated segmentation, resampled independently
        onto the conformed grid for oblique inputs; components from
        ``scipy.ndimage.label`` with a 3x3x3 structure.
        """
        import numpy as np
        from scipy import ndimage

        import inputs
        from brainvqa.nifti import read_nifti_file
        from brainvqa.synthetic import GLI_LABELS

        out = {}
        for study_id, seg in sorted(inp["segs"].items()):
            t1 = read_nifti_file(inp["root"] / "studies" / study_id / "t1.nii.gz").data
            if inp["affine"] is not None:
                seg = inputs.resample_nearest(seg, inp["affine"])
                t1 = inputs.resample_nearest(t1, inp["affine"])
            brain = int(np.count_nonzero(t1))
            for label, name in GLI_LABELS.items():
                mask = seg == label
                _, n = ndimage.label(mask, structure=np.ones((3, 3, 3)))
                out[(study_id, name)] = (int(mask.sum()), int(n), brain)
        return out

    def run_pass(self, inp: dict, out: Path, seed: int, workers: int | None = None) -> Pass:
        root = inp["root"]
        p = Pass()
        workers = workers or self.params["workers"]
        code, _, secs = cli_call(
            ["describe", "--workers", workers, "--data-dir", root / "studies",
             "--labels-config", root / "labels.json", "--atlas", root / "atlas.nii.gz",
             "--region-map", root / "region_map.json", "--out", out / "descriptors.jsonl"], p)
        p.facts["codes"] = [code]
        p.items, p.item_rates = len(inp["segs"]), [len(inp["segs"]) / secs]
        if workers != self.params["workers"]:
            read_outputs(p, out)
            return p
        code, _, _ = cli_call(["generate", "--descriptors", out / "descriptors.jsonl",
                               "--seed", seed, "--out", out / "data.jsonl"], p)
        p.facts["codes"].append(code)
        code, stats_out, _ = cli_call(["stats", "--in", out / "data.jsonl",
                                       "--out", out / "frequencies.csv"], p)
        p.facts["codes"].append(code)
        # Gold labels scored as predictions must give 100% on every task.
        gold = [json.loads(line) for line in (out / "data.jsonl").read_text().splitlines()]
        preds = [{"id": r["id"], "volume": r["gold_volume"], "regions": r["gold_regions"],
                  "shape": r["gold_shape"], "spread": r["gold_spread"], "oos": r["oos_kind"]}
                 for r in gold]
        pred_path = out.parent / f"{out.name}-pred.jsonl"
        pred_path.write_text("".join(json.dumps(x) + "\n" for x in preds), encoding="utf-8")
        code, _, _ = cli_call(["eval", "--gold", out / "data.jsonl", "--pred", pred_path,
                               "--kappa", out / "data.jsonl", "--seed", seed,
                               "--out", out / "report.json"], p)
        p.facts["codes"].append(code)
        # eval is a fraction of a second of this chain, too short to time on its
        # own against the machine's jitter: the rate is records per chain second.
        p.scored, p.scored_rates = len(gold), [len(gold) / p.wall]
        read_outputs(p, out)
        return p

    def check(self, inp: dict, expected: dict, p: Pass, checks: Checks) -> None:
        checks.check(all(c == 0 for c in p.facts["codes"]), f"exit codes {p.facts['codes']}")
        checks.ops(p.items + p.scored)
        desc = [json.loads(line) for line in p.outputs.get("descriptors.jsonl", b"").splitlines()]
        checks.check(len(desc) == len(expected), f"{len(desc)} descriptors, "
                     f"expected {len(expected)}")
        checks.check("descriptors.jsonl.failures.json" not in p.outputs, "a study failed")
        for d in desc:
            voxels, n_comp, brain = expected[(d["study_id"], d["label_name"])]
            key = f"{d['study_id']}/{d['label_name']}"
            checks.check(d["n_components"] == n_comp,
                         f"{key}: {d['n_components']} components, oracle {n_comp}")
            if voxels == 0:
                checks.check(d["volume_bin"] == "N/A" and d["spread"] == "N/A",
                             f"{key}: absent label not N/A")
            else:
                checks.check(d["volume_fraction"] == voxels / brain,
                             f"{key}: volume fraction {d['volume_fraction']} != "
                             f"{voxels}/{brain}")
        if "data.jsonl" not in p.outputs:
            return
        records = [json.loads(line) for line in p.outputs["data.jsonl"].splitlines()]
        per_pair = Counter((r["study_id"], r["label_name"]) for r in records)
        checks.check(set(per_pair.values()) == {6} and len(per_pair) == len(desc),
                     "not 6 records per (study, label)")
        report = json.loads(p.outputs.get("report.json", b"{}") or b"{}")
        accs = list((report.get("accuracy") or {}).values()) + [report.get("oos_accuracy")]
        checks.check(bool(accs) and all(a == 100.0 for a in accs if a is not None),
                     f"gold-as-prediction accuracy {accs}")
        checks.check((report.get("kappa") or {}).get("mean") == 100.0,
                     f"self-agreement kappa {report.get('kappa')}")


# ---------------------------------------------------------------------------
# qa_corpus: generate --descriptors -> stats -> split -> eval on the test split

class QACorpus(Workload):
    def setup(self, root: Path, seed: int) -> dict:
        import inputs

        root.mkdir(parents=True)
        perturbed = inputs.write_qa_corpus(root, seed, self.params["studies"],
                                           self.params["error_rate"])
        return {"root": root, "perturbed": perturbed}

    def run_pass(self, inp: dict, out: Path, seed: int) -> Pass:
        root = inp["root"]
        p = Pass()
        codes = []
        code, _, secs = cli_call(["generate", "--descriptors", root / "descriptors.jsonl",
                                  "--seed", seed, "--out", out / "data.jsonl"], p)
        codes.append(code)
        generate_s = secs
        code, stats_out, _ = cli_call(["stats", "--in", out / "data.jsonl",
                                       "--out", out / "frequencies.csv"], p)
        codes.append(code)
        p.facts["stats_stdout"] = stats_out
        code, _, _ = cli_call(["split", "--seed", seed, "--descriptors",
                               root / "descriptors.jsonl", "--out", out / "split.json"], p)
        codes.append(code)
        test = {k for k, v in json.loads((out / "split.json").read_text()).items()
                if v == "test"}
        lines = (out / "data.jsonl").read_text(encoding="utf-8").splitlines()
        p.items, p.item_rates = len(lines), [len(lines) / generate_s]
        gold_test = [line for line in lines if json.loads(line)["study_id"] in test]
        gold_path = out.parent / f"{out.name}-gold-test.jsonl"
        gold_path.write_text("\n".join(gold_test) + "\n", encoding="utf-8")
        code, _, secs = cli_call(["eval", "--gold", gold_path, "--pred", root / "pred.jsonl",
                                  "--kappa", root / "kappa.jsonl", "--seed", seed,
                                  "--out", out / "report.json"], p)
        codes.append(code)
        p.scored, p.scored_rates = len(gold_test), [len(gold_test) / secs]
        p.facts["codes"] = codes
        p.facts["test"] = test
        read_outputs(p, out)
        return p

    def check(self, inp: dict, expected: dict, p: Pass, checks: Checks) -> None:
        checks.check(all(c == 0 for c in p.facts["codes"]), f"exit codes {p.facts['codes']}")
        checks.ops(p.items + p.scored)
        records = [json.loads(line) for line in p.outputs["data.jsonl"].splitlines()]
        n_desc = len((inp["root"] / "descriptors.jsonl").read_text().splitlines())
        checks.check(len(records) == 6 * n_desc, f"{len(records)} records for {n_desc} "
                     "descriptors")
        _check_stats(records, p, checks)
        split = json.loads(p.outputs["split.json"])
        checks.check(all(split[r["study_id"]] == r["split"] for r in records),
                     "record splits disagree with the split command")
        test = [r for r in records if r["study_id"] in p.facts["test"]]
        checks.check(len(test) == p.scored and p.scored > 0, "test split is empty")
        report = json.loads(p.outputs["report.json"])
        want = _expected_accuracy(test, inp["perturbed"], inp["root"] / "pred.jsonl")
        for task, value in want.items():
            got = report["oos_accuracy"] if task == "oos" else report["accuracy"][task]
            checks.check(got is not None and abs(got - value) < 1e-9,
                         f"{task} accuracy {got}, expected {value}")
        want_kappa = _expected_kappa(test, inp["root"] / "kappa.jsonl")
        for task, value in want_kappa.items():
            got = report["kappa"].get(task)
            checks.check(got is not None and abs(got - value) < 1e-9,
                         f"{task} kappa {got}, expected {value}")


def _check_stats(records: list[dict], p: Pass, checks: Checks) -> None:
    """The stats summary and every frequency row, recounted from the records."""
    from brainvqa.qagen import TASK_VOCAB

    summary = json.loads(p.facts["stats_stdout"].split("\n", 1)[1].rsplit("\nwrote", 1)[0])
    checks.check(summary["questions"] == len(records)
                 and summary["mpmri"] == len({r["study_id"] for r in records}),
                 f"stats summary {summary}")
    n = len(records)
    keys = {"volume": "gold_volume", "region": "gold_regions", "shape": "gold_shape",
            "spread": "gold_spread"}
    want = {}
    for task, key in keys.items():
        golds = [r[key] for r in records]
        for value in ("Unspecified", "N/A") + tuple(TASK_VOCAB[task]):
            if task == "region" and value not in ("Unspecified", "N/A"):
                count = sum(isinstance(g, list) and value in g for g in golds)
            else:
                count = sum(g == value for g in golds)
            want[(task, value)] = f"{100.0 * count / n:.1f}"
    n_oos = sum(r["oos_kind"] != "none" for r in records)
    want[("out-of-scope", "Not out-of-scope")] = f"{100.0 * (n - n_oos) / n:.1f}"
    want[("out-of-scope", "Out-of-scope")] = f"{100.0 * n_oos / n:.1f}"
    rows = {}
    for line in p.outputs["frequencies.csv"].decode().splitlines()[1:]:
        task, rest = line.split(",", 1)
        label, pct = rest.rsplit(",", 1)
        rows[(task, label.strip('"'))] = pct
    checks.check(rows == want, "frequency table disagrees with a recount of the records")


def _region_score(pred, gold) -> float:
    from brainvqa.regions import REGION_NAMES

    if pred == "N/A" or gold == "N/A":
        return float(pred == gold)
    return sum((r in pred) == (r in gold) for r in REGION_NAMES) / len(REGION_NAMES)


def _expected_accuracy(test: list[dict], perturbed: dict, pred_path: Path) -> dict:
    """Exact-match accuracy is the unperturbed share; region gets per-label credit."""
    preds = {d["id"]: d for d in map(json.loads, pred_path.read_text().splitlines())}
    out = {}
    for task, key in (("volume", "gold_volume"), ("shape", "gold_shape"),
                      ("spread", "gold_spread")):
        asked = [r["id"] for r in test if r[key] != "Unspecified"]
        out[task] = 100.0 * sum(i not in perturbed[task] for i in asked) / len(asked)
    asked = [r for r in test if r["gold_regions"] != "Unspecified"]
    out["region"] = 100.0 * statistics.fmean(
        _region_score(preds[r["id"]]["regions"], r["gold_regions"]) for r in asked)
    out["oos"] = 100.0 * sum(r["id"] not in perturbed["oos"] for r in test) / len(test)
    return out


def _expected_kappa(test: list[dict], kappa_path: Path) -> dict:
    """Cohen's kappa per task from a contingency count, in percent."""
    other = {d["id"]: d for d in map(json.loads, kappa_path.read_text().splitlines())}
    canon = lambda g: ",".join(sorted(g)) if isinstance(g, list) else str(g)  # noqa: E731
    out = {}
    for task, key in (("volume", "gold_volume"), ("region", "gold_regions"),
                      ("shape", "gold_shape"), ("spread", "gold_spread")):
        pairs = [(canon(r[key]), canon(other[r["id"]][key])) for r in test
                 if r[key] != "Unspecified"]
        n = len(pairs)
        p_o = sum(a == b for a, b in pairs) / n
        ca, cb = Counter(a for a, _ in pairs), Counter(b for _, b in pairs)
        p_e = sum(ca[k] * cb[k] for k in ca) / (n * n)
        out[task] = 100.0 * (p_o - p_e) / (1.0 - p_e)
    out["mean"] = statistics.fmean(out.values())
    return out


# ---------------------------------------------------------------------------
# moe_train: fixed-step gradient descent, then single-sample routing

class MoETrain(Workload):
    def setup(self, root: Path, seed: int) -> dict:
        from brainvqa import training

        root.mkdir(parents=True)
        task = training.make_toy_task(seed=seed, **self.params["fixture"])
        return {"root": root, "task": task}

    def run_pass(self, inp: dict, out: Path, seed: int) -> Pass:
        import numpy as np

        from brainvqa import moe, training

        task = inp["task"]
        model = copy.deepcopy(task.model)  # every pass trains from the same init
        p = Pass()
        val = task.val
        curve, steps, route_s = [], [], []

        def route(indices):
            fused, routes = [], []
            for i in indices:
                start = time.perf_counter()
                e, trace = moe.moe_forward(val.v[i], val.cls[i], val.t[i], model.moe)
                route_s.append(time.perf_counter() - start)
                fused.append(e)
                routes.append(trace.pi_high)
            return fused, routes

        # Routing a rotating slice of the held-out samples after every step
        # spreads the routing samples over the whole pass like the steps, so
        # both medians see the same mix of the machine's fast and slow spells.
        per_step = self.params["routes_per_step"]
        for step in range(self.params["steps"]):
            start = time.perf_counter()
            curve += training.train_toy(task.train, model, steps=1, lr=self.params["lr"])
            steps.append(time.perf_counter() - start)
            route((step * per_step + k) % len(val) for k in range(per_step))
        fused, routes = route(range(len(val)))
        p.items, p.item_rates = len(steps), [1.0 / s for s in steps]
        p.scored, p.scored_rates = len(route_s), [1.0 / s for s in route_s]
        p.wall = sum(steps) + sum(route_s)
        start = time.perf_counter()
        moe.save_checkpoint(out / "params.bvqm", model.moe, extra={"seed": seed})
        p.wall += time.perf_counter() - start
        code, _, _ = cli_call(["heatmap", "--params", out / "params.bvqm",
                               "--out", out / "heatmap.csv"], p)
        (out / "curve.csv").write_text("".join(f"{v!r}\n" for v in curve))
        (out / "fused.bin").write_bytes(np.asarray(fused).tobytes())
        p.facts.update(code=code, curve=curve, steps=steps, routes=routes, fused=fused,
                       model=model)
        read_outputs(p, out)
        return p

    def check(self, inp: dict, expected: dict, p: Pass, checks: Checks) -> None:
        import numpy as np

        from brainvqa import moe, training

        f = p.facts
        checks.ops(p.items + p.scored)
        checks.check(f["code"] == 0, f"heatmap exit code {f['code']}")
        checks.check(bool(np.isfinite(f["curve"]).all()), "non-finite training loss")
        sm = training.smoothed(f["curve"], 50)
        checks.check(len(sm) > 1 and bool(np.all(np.diff(sm) <= 1e-9)),
                     "smoothed loss curve is not monotone")
        val = inp["task"].val
        batched, _ = moe.moe_forward_batch(val.v, val.cls, val.t, f["model"].moe)
        for i in np.linspace(0, len(val) - 1, self.params["oracle_samples"]).astype(int):
            oracle = moe.moe_forward_oracle(val.v[i], val.cls[i], val.t[i], f["model"].moe)
            checks.check(float(np.abs(batched[i] - oracle).max()) <= 1e-12,
                         f"batched forward differs from the loop oracle at item {i}")
            checks.check(bool(np.array_equal(batched[i], f["fused"][i]))
                         or float(np.abs(batched[i] - f["fused"][i]).max()) <= 1e-12,
                         f"single-sample forward differs from batched at item {i}")
        worst = max(abs(float(r.sum()) - 1.0) for r in f["routes"])
        checks.check(worst <= 1e-12, f"routing vector sums deviate from 1 by {worst}")
        lines = p.outputs["heatmap.csv"].decode().splitlines()
        checks.check(len(lines) == 61, f"heatmap has {len(lines) - 1} rows, expected 60")

    def step_flops(self, inp: dict) -> int:
        """FLOPs of one training step computed from the array shapes.

        Forward matmul/einsum FLOPs (2 per multiply-add) of the router, both
        expert projections, the gates and the heads; backward counted as twice
        the forward.
        """
        task = inp["task"]
        b, n_i, n_m, d_i = task.train.v.shape
        cfg, arrays = task.model.moe.config, task.model.moe.arrays
        h_high = arrays["high.W1"].shape[0]
        fwd = 2 * b * (cfg.d_text * h_high + h_high * cfg.n_experts)
        for n, gran in enumerate(cfg.granularity):
            rows = b if gran == "modality" else b * n_i
            h = arrays[f"expert{n}.low.W1"].shape[0]
            fwd += 2 * rows * (n_m * d_i * h + h * n_m)  # gate MLP
            fwd += 2 * (2 * b * n_i * n_m * cfg.d_text * d_i)  # specific + shared projections
        fwd += sum(2 * b * w.shape[0] * w.shape[1] for k, w in task.model.heads.items()
                   if k.endswith(".W"))
        return 3 * fwd


# ---------------------------------------------------------------------------
# The workloads.  Why each exists is recorded in BENCHMARK.json and README.md.

WORKLOADS = {w.name: w for w in (
    Geometry("brats_describe", {"kind": "brats", "dims": (240, 240, 155),
                                "flair_voxels": (18000, 45000), "workers": 1}),
    Geometry("oblique_scatter", {"kind": "scatter", "dims": (96, 96, 96), "studies": 2,
                                 "pixdim": (1.0, 1.0, 1.3), "degrees": (20.0, 12.0),
                                 "components_per_label": 40, "workers": 2}),
    QACorpus("qa_corpus", {"studies": 250, "error_rate": 0.15}),
    MoETrain("moe_train", {"fixture": {"n_train": 256, "n_val": 64}, "steps": 60, "lr": 0.25,
                           "routes_per_step": 16, "oracle_samples": 4}),
)}


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(setups: list[float], passes: list[Pass]) -> dict:
    med = statistics.median
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (med(setups), "s"),
        "wall_s": (med(p.wall for p in passes), "s"),
        "items_per_s": (med(r for p in passes for r in p.item_rates), "1/s"),
        "scored_per_s": (med(r for p in passes for r in p.scored_rates), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(workload, inp: dict, reference: Pass, traced: list[tuple[Pass, object]]) -> dict:
    import tracing

    med = statistics.median
    values = [tracing.layer_metrics(tracer) for _, tracer in traced]
    out = {name: (med(v[name][0] for v in values), unit)
           for name, (_, unit) in values[0].items()}
    out["trace.overhead_s"] = (med(p.wall for p, _ in traced) - reference.wall, "s")
    out["moe.step_flops"] = (workload.step_flops(inp), "count")
    steps = reference.facts.get("steps") or [0.0]
    deciles = statistics.quantiles(steps, n=10) if len(steps) > 1 else [steps[0]] * 9
    out["training.step_ms.p50"] = (1e3 * med(steps), "ms")
    out["training.step_ms.p90"] = (1e3 * deciles[8], "ms")
    return out


def result_line(correct: bool, checks: Checks, metrics: dict) -> str:
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# ---------------------------------------------------------------------------
# One run

# Set-up runs at least SETUP_MIN times, and more (up to SETUP_MAX) while the
# repeats have taken less than SETUP_BUDGET_S, so that millisecond set-ups
# (moe_train's is about 6 ms) still give a steady median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 200, 2.0


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[Checks, dict]:
    """Set up, measure whole passes, check every pass; returns checks and metrics."""
    setups, inp = [], None
    for k in range(SETUP_MAX):
        if k >= SETUP_MIN and sum(setups) >= SETUP_BUDGET_S:
            break
        root = work / f"inputs{k}"
        start = time.perf_counter()
        made = workload.setup(root, seed)
        setups.append(time.perf_counter() - start)
        if inp is None:
            inp = made
        else:  # later copies only time the set-up again
            shutil.rmtree(root)
    expected = workload.expected(inp)
    checks = Checks()
    out = work / "out"
    out.mkdir()

    t0 = time.perf_counter()
    reference = workload.run_pass(inp, out, seed)
    workload.check(inp, expected, reference, checks)
    passes, traced = [reference], []

    def room() -> bool:  # another pass of typical length still fits in --seconds
        typical = statistics.median(p.wall for p in passes)
        return time.perf_counter() - t0 + typical <= seconds

    def check_and_compare(p: Pass) -> None:
        workload.check(inp, expected, p, checks)
        for name, data in reference.outputs.items():
            checks.check(p.outputs.get(name) == data, f"{name} differs between passes "
                         + ("(traced vs untraced)" if trace else "with one seed"))
        p.outputs, p.facts = {}, {}  # keep memory flat over many passes
        passes.append(p)

    if not trace:
        while room():
            check_and_compare(workload.run_pass(inp, out, seed))
        metrics = end_to_end(setups, passes)
    else:
        import tracing

        while not traced or room():
            tracer = tracing.Tracer()
            with tracer.installed():
                p = workload.run_pass(inp, out, seed)
            check_and_compare(p)
            traced.append((p, tracer))
        metrics = per_layer(workload, inp, reference, traced)
        print_layer_tables(workload, inp, traced[0][1], metrics)

    # The other worker count is checked in traced runs only: one more describe
    # call per run would cost oblique_scatter a quarter of its measuring time.
    if isinstance(workload, Geometry) and trace:
        other = 3 - workload.params["workers"]
        (work / "out-workers").mkdir()
        p = workload.run_pass(inp, work / "out-workers", seed, workers=other)
        checks.check(p.outputs.get("descriptors.jsonl") == reference.outputs["descriptors.jsonl"],
                     f"descriptors differ between --workers {workload.params['workers']} "
                     f"and --workers {other}")
    return checks, metrics


# Re-anchor baseline from ROADMAP.md (2-core machine, Python 3.11, NumPy 2.4):
# (what, value, unit).  A BraTS-grid study there had about 28k lesion voxels.
BASELINE = {
    "brats_describe": [
        ("conform_to_ras per volume (identity)", 2.1, "s"),
        ("compute_descriptors per study", 5.2, "s"),
        ("  hull share of it (corners + quickhull)", 2.5, "s"),
        ("  union-find components share", 0.8, "s"),
        ("  marching cubes share", 0.1, "s"),
    ],
    "moe_train": [
        ("train step", 116.0, "ms"),
        ("  forward", 28.0, "ms"),
        ("  backward", 69.0, "ms"),
    ],
}


def print_layer_tables(workload, inp: dict, tracer, metrics: dict) -> None:
    """Self time per traced function, and the baseline comparison where one exists."""
    import tracing

    by_name = tracing.by_function(tracer)
    print(f"traced self time per function, first traced pass ({len(tracer.spans)} spans):")
    for name, (calls, self_s) in sorted(by_name.items(), key=lambda kv: -kv[1][1])[:20]:
        print(f"  {name:40s} {calls:8d} calls {self_s:10.4f} s")
    if workload.name not in BASELINE:
        return
    calls = {name: c for name, (c, _) in by_name.items()}
    m = {k: v for k, (v, _) in metrics.items()}
    if workload.name == "brats_describe":
        studies = len(inp["segs"])
        ours = [
            m["nifti.conform_s"] / max(1, calls.get("nifti.conform_to_ras", 0)),
            tracing.inclusive(tracer, {"qagen.compute_descriptors"}) / studies,
            (m["hull.corner_points_s"] + m["hull.quickhull_s"]) / studies,
            m["morphology.components_s"] / studies,
            m["surface.marching_cubes_s"] / studies,
        ]
        note = (f"per study here: {m['morphology.fg_voxels'] / studies:.0f} lesion voxels and "
                f"{m['hull.points'] / studies:.0f} hull input points (baseline: about 28k "
                "voxels, 31,720 points); hull and mesh time scale with the lesion surface")
    else:
        steps = workload.params["steps"]
        ours = [tracing.inclusive(tracer, {"training.train_toy"}) / steps * 1e3,
                m["moe.forward_s"] / steps * 1e3, m["moe.backward_s"] / steps * 1e3]
        note = "the traced step includes the wrapper cost of about ten spans per step"
    print("per-layer figures against the ROADMAP re-anchor baseline:")
    for (what, base, unit), value in zip(BASELINE[workload.name], ours):
        ratio = value / base
        verdict = "agrees" if 0.67 <= ratio <= 1.5 else "differs"
        print(f"  {what:42s} {value:9.3f} {unit:2s} baseline {base:7.3f} {unit:2s} "
              f"x{ratio:5.2f} {verdict}")
    print(f"  note: {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "brainvqa" / "__init__.py").is_file():
        print(f"error: no brainvqa sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"params {json.dumps(workload.params)}")
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        checks, metrics = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    print(result_line(checks.failed == 0, checks, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
