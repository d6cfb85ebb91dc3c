"""Checkpoint and mesh writers replace their target atomically."""
from __future__ import annotations

import os

import numpy as np
import pytest

from brainvqa.moe import init_moe_params, save_checkpoint
from brainvqa.surface import marching_cubes, write_off


def write_checkpoint(path, seed):
    save_checkpoint(path, init_moe_params(seed, n_experts=2, n_modalities=2, d_image=3,
                                          d_text=4))


def write_mesh(path, seed):
    mask = np.zeros((4, 4, 4), dtype=np.uint8)
    mask[1 : 2 + seed, 1:3, 1:3] = 1
    write_off(marching_cubes(mask), path)


@pytest.mark.parametrize("write", [write_checkpoint, write_mesh])
def test_failed_replace_keeps_target_and_leaves_no_temp(tmp_path, monkeypatch, write):
    target = tmp_path / "out.bin"
    write(target, 0)
    before = target.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write(target, 1)
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.bin"]


@pytest.mark.parametrize("write", [write_checkpoint, write_mesh])
def test_rewrite_replaces_target(tmp_path, write):
    target = tmp_path / "out.bin"
    write(target, 0)
    before = target.read_bytes()
    write(target, 1)
    assert target.read_bytes() != before
    assert os.listdir(tmp_path) == ["out.bin"]


@pytest.mark.parametrize("write", [write_checkpoint, write_mesh])
def test_output_mode_follows_umask(tmp_path, write):
    previous = os.umask(0o027)
    try:
        write(tmp_path / "out.bin", 0)
        write(tmp_path / "out.bin", 1)
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(previous)
    assert (tmp_path / "out.bin").stat().st_mode == (tmp_path / "plain").stat().st_mode
