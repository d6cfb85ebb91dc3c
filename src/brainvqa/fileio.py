"""Atomic file output shared by every writer of the toolkit."""
from __future__ import annotations

import os
import uuid
from pathlib import Path


def atomic_write(path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8, or bytes) to ``path`` via a temp file and a rename.

    Readers see the old file or the new one, never a partial write.  On any
    failure the temp file is removed and an existing target keeps its bytes.
    Missing parent directories are created.  The file gets the mode a plain
    ``open`` would give it (0o666 less the umask).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
