"""Atomic artifact writes: a temp file in the target directory, then ``os.replace``.

A reader of an artifact sees either its previous content or the complete new
one, never a partial write; a write that raises leaves the previous file
untouched and removes its temp file. This guards against a failing or killed
writer, not against power loss (nothing is fsynced).
"""

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path, binary: bool = False):
    """Yield a file handle whose content replaces ``path`` when the block exits cleanly.

    Text handles are UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) atomically."""
    with atomic_open(path) as fh:
        fh.write(text)
