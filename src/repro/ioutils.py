"""Small filesystem helpers shared by everything that writes to disk.

Every file this package persists — study snapshots (plain or gzip),
watch checkpoints — goes through
:func:`atomic_write_text` / :func:`atomic_write_bytes`: write to a
same-directory temporary file, flush + fsync, then ``os.replace`` over
the destination.  A crash or interrupt mid-write can therefore never
leave a truncated file behind; readers see either the old content or
the new content, never a prefix of the new one.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_bytes", "atomic_write_text"]


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Write *payload* to *path* atomically.

    The temporary file lives in the destination's directory so the
    final ``os.replace`` is a same-filesystem rename (atomic on POSIX).
    On any failure — including :class:`KeyboardInterrupt` — the
    temporary file is removed and the destination is left untouched.
    """
    target = Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode="wb",
        dir=str(target.parent) or ".",
        prefix=target.name + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:  # pragma: no cover - already renamed or gone
            pass
        raise


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Write *text* to *path* atomically (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))
