"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open`` a temporary file beside ``path`` that replaces ``path`` on a clean exit.

    If the block raises, the temporary file is removed and ``path`` keeps
    whatever it held before, so a reader never sees a partial file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
