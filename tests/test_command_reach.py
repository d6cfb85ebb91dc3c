"""Every public function and method in ``brainvqa`` runs in some command.

The test runs every CLI command once on a small fixture corpus, in process,
under ``sys.setprofile`` (and ``threading.setprofile`` for the describe
workers), and collects the code objects that were entered.  A public
function or method that no command enters is code that only tests run; it
belongs in ``tests/``, or nowhere.  Dunders and ``_``-private names are
exempt, and so is the allow-list below, each entry with its reader.
"""
from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import threading
from importlib import resources

import brainvqa
from brainvqa import cli, surface, synthetic

# Public names that no command runs, and what reads them.
NOT_RUN_BY_COMMANDS = {
    "brainvqa.shape.shape_metrics",  # acceptance criterion 03b
    "brainvqa.morphology.ComponentLabeling.total_voxels",  # perfbench's tracer
}


def public_code() -> dict[str, object]:
    """Qualified name -> code object of every public function and method in brainvqa."""
    found = {}
    for info in pkgutil.iter_modules(brainvqa.__path__):
        module = importlib.import_module(f"brainvqa.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            qualified = f"{module.__name__}.{name}"
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        found[f"{qualified}.{attr}"] = member.__code__
            elif callable(obj):
                found[qualified] = inspect.unwrap(obj).__code__
    return found


def run_every_command(root) -> None:
    """Each command once, on a corpus that ``python -m brainvqa.synthetic`` writes."""
    corpus = root / "corpus"
    assert synthetic.main([str(corpus), "--studies", "3", "--seed", "7"]) == 0
    geometry = ["--data-dir", str(corpus / "studies"), "--labels-config",
                str(corpus / "labels.json"), "--atlas", str(corpus / "atlas.nii.gz"),
                "--region-map", str(corpus / "region_map.json")]
    bank = root / "bank.txt"
    bank.write_text(resources.files("brainvqa.data").joinpath("default_bank.txt")
                    .read_text("utf-8"), encoding="utf-8")
    desc, data, again = root / "desc.jsonl", root / "data.jsonl", root / "again.jsonl"
    params, preds = root / "params.bvqm", root / "pred.jsonl"
    commands = [
        ["describe", *geometry, "--workers", "1", "--mesh-out", str(root / "m1"),
         "--out", str(desc)],
        ["describe", *geometry, "--workers", "2", "--mesh-out", str(root / "m2"),
         "--out", str(root / "desc2.jsonl")],
        ["generate", "--descriptors", str(desc), "--seed", "1", "--out", str(data)],
        ["generate", "--descriptors", str(desc), "--bank", str(bank), "--seed", "1",
         "--out", str(again)],
        ["stats", "--in", str(data), "--out", str(root / "freq.csv")],
        ["split", "--seed", "1", "--descriptors", str(desc), "--out", str(root / "split.json")],
        ["eval", "--gold", str(data), "--pred", str(preds), "--kappa", str(again),
         "--resamples", "20", "--out", str(root / "report.json")],
        ["moe-check", "--configs", "2", "--prompts", "20", "--experts", "4"],
        ["moe-demo", "--steps", "3", "--out", str(root / "curve.csv"),
         "--save-params", str(params)],
        ["heatmap", "--experts", "4", "--out", str(root / "h1.csv")],
        ["heatmap", "--params", str(params), "--out", str(root / "h2.csv")],
    ]
    for argv in commands:
        if argv[0] == "eval":
            records = [json.loads(line) for line in data.read_text().splitlines()]
            preds.write_text("".join(json.dumps(
                {"id": r["id"], "volume": r["gold_volume"], "regions": r["gold_regions"],
                 "shape": r["gold_shape"], "spread": r["gold_spread"], "oos": r["oos_kind"]})
                + "\n" for r in records))
        assert cli.main(argv) == 0, argv


def test_every_public_function_runs_in_a_command(tmp_path, capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    surface.case_area.cache_clear()  # a cached table would not be entered again
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_every_command(tmp_path)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    capsys.readouterr()
    not_run = {name for name, code in public_code().items() if code not in entered}
    assert not_run == NOT_RUN_BY_COMMANDS  # an allowed name that a command runs is stale
