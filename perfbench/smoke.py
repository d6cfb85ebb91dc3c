#!/usr/bin/env python3
"""Fast self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/smoke.py

Runs every workload of ``run.WORKLOADS`` with shrunken generator parameters,
once untraced and once traced, and checks that:

* every check of every workload passes, which includes traced outputs being
  byte-identical to untraced ones and ``--workers 1`` equal to ``--workers 2``;
* the metrics printed are exactly the ones BENCHMARK.json declares, and every
  name matches ``[A-Za-z0-9_.-]+``;
* the result line is one JSON object with the four contract keys;
* ``run.py`` exits non-zero without a result line when the sources are absent.

Exits 0 when all of that holds, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import copy
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "brats_describe": {"dims": (48, 48, 40), "flair_voxels": (300, 900)},
    "oblique_scatter": {"dims": (28, 28, 24), "components_per_label": 5},
    "qa_corpus": {"studies": 40},
    "moe_train": {"fixture": {"n_train": 32, "n_val": 8}},
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    names = {w["name"] for w in spec["workloads"]}
    if names != set(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(names)} != {sorted(run.WORKLOADS)}")
    work = run.ROOT / ".perfbench_work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, base in run.WORKLOADS.items():
            workload = copy.copy(base)
            workload.params = {**base.params, **TINY[name]}
            for trace in (False, True):
                target = work / f"{name}-{int(trace)}"
                target.mkdir(parents=True)
                checks, metrics = run.run(workload, 7, 0.0, trace, target)
                line = json.loads(run.result_line(checks.failed == 0, checks, metrics))
                tag = f"{name} trace={int(trace)}"
                if set(line) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(line)}")
                if not line["correct"] or line["failed"]:
                    problems.append(f"{tag}: {line['failed']} of {line['attempted']} failed")
                if set(metrics) != declared[trace]:
                    problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(metrics) ^ declared[trace])}")
                bad = [m for m in metrics if not run.METRIC_NAME.fullmatch(m)]
                if bad:
                    problems.append(f"{tag}: bad metric names {bad}")
                print(f"ok {tag}: {line['attempted']} attempted", flush=True)
        empty = work / "empty"
        shutil.copytree(run.HERE, empty / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", empty)
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                               "qa_corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=empty, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("run.py did not fail in a directory without the sources")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for p in problems:
        print(f"FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
