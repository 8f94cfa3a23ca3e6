"""Atomic file publication: write a temp file, then ``os.replace`` it.

The one copy of the idiom the run cache and the result store both build on:
a reader never observes a half-written file (it sees the old content or the
new content, nothing in between), and a killed writer leaves at most a
``*.tmp`` file that is cleaned up, never a torn destination.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


def atomic_write_text(path: str | Path, text: str, *, encoding: str = "utf-8") -> None:
    """Atomically publish ``text`` at ``path`` (parent created if needed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


@contextmanager
def atomic_text_writer(path: str | Path, *, encoding: str = "utf-8") -> Iterator[IO[str]]:
    """Yield a text handle whose content is atomically published at ``path``.

    The streaming form of :func:`atomic_write_text`: callers write row by row
    instead of building the whole payload in memory, with the same contract —
    the destination appears only after the block exits cleanly, and any error
    (in the write or in the caller's block) unlinks the temp file and leaves
    the destination untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            yield handle
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_copy_file(src: str | Path, dst: str | Path) -> None:
    """Atomically publish a byte-for-byte copy of ``src`` at ``dst``.

    The copy streams through a bounded buffer (``shutil.copyfileobj``), so
    arbitrarily large part files never pass through memory whole.
    """
    src = Path(src)
    dst = Path(dst)
    dst.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(dir=dst.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as out_handle, open(src, "rb") as in_handle:
            shutil.copyfileobj(in_handle, out_handle)
        os.replace(temp_name, dst)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


__all__ = ["atomic_write_text", "atomic_text_writer", "atomic_copy_file"]
