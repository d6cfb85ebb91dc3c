"""Test-only MoE helpers: token pooling and writing checkpoints that
``MoEParams`` would refuse to build."""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from brainvqa.errors import FormatError
from brainvqa.moe import MoEConfig, save_checkpoint


def spatial_pool(tokens: np.ndarray, factor: int) -> np.ndarray:
    """Mean over non-overlapping groups of ``factor`` consecutive tokens."""
    tokens = np.asarray(tokens, dtype=np.float64)
    n = tokens.shape[0]
    if factor < 1 or n % factor != 0:
        raise FormatError(f"pooling factor {factor} does not divide {n} tokens")
    return tokens.reshape(n // factor, factor, *tokens.shape[1:]).mean(axis=1)


def save_unchecked(path, config: MoEConfig, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` as a checkpoint of ``config``, whatever their names and shapes."""
    save_checkpoint(path, SimpleNamespace(config=config, arrays=arrays))
