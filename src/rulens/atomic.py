"""The one file writer of the package: every artifact is written to a
sibling temp file and renamed into place, so a reader never sees a partial
file."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write(path: Path | str, data: bytes | str) -> None:
    """Replace path with data (str is encoded as UTF-8), creating parents."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
