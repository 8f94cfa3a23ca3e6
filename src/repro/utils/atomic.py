"""Atomic file publication: write a temp file, then ``os.replace`` it.

The one copy of the idiom the run cache, the result store and the serve
daemon's job records build on. A reader never observes a half-written file:
it sees the old content or the new content, nothing in between.

What is and is not covered:

* An exception anywhere in a write unlinks the temp file and leaves the
  destination as it was.
* A killed writer leaves the destination as it was, plus one orphan temp
  file, ``<dest>.<pid>-<thread id>.tmp``, next to it. Nothing removes that
  orphan yet; the pid in its name tells it apart from a live writer's.
  A later write to the same destination by a process that reuses the pid
  (and thread id) removes it.
* Power loss is not covered: nothing calls ``fsync``, so after a crash of
  the machine the destination may be empty or old.

The temp file is created with mode ``0o600`` (before the umask), the mode
:func:`tempfile.mkstemp` gives, so published files keep the mode they had.
"""

from __future__ import annotations

import os
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

#: ``os.open`` flags of a temp file: a new regular file, never a symlink's
#: target, not inherited by child processes.
_TEMP_FLAGS = (
    os.O_WRONLY | os.O_CREAT | os.O_EXCL
    | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_CLOEXEC", 0)
)


def _open_temp(path: Path) -> tuple[int, str]:
    """Create ``path``'s temp file; returns ``(descriptor, temp name)``.

    The name carries the writer's pid and thread id, so no two live writers
    share one. The parent directory is created only when the open finds it
    missing. A file already under the name was left by a dead writer (one
    thread runs one write at a time); it is unlinked and the open retried
    once.
    """
    temp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        return os.open(temp, _TEMP_FLAGS, 0o600), temp
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        os.unlink(temp)
    return os.open(temp, _TEMP_FLAGS, 0o600), temp


def _discard(temp: str) -> None:
    try:
        os.unlink(temp)
    except OSError:
        pass


def atomic_write_text(path: str | Path, text: str, *, encoding: str = "utf-8") -> None:
    """Atomically publish ``text`` at ``path`` (parent created if needed).

    The text is encoded before anything touches the disk, then written with
    one ``os.open``, ``os.write`` and ``os.replace``: no buffered file object.
    """
    path = Path(path)
    data = memoryview(text.encode(encoding))
    fd, temp = _open_temp(path)
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(temp, path)
    except BaseException:
        _discard(temp)
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
    fd, temp = _open_temp(path)
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        _discard(temp)
        raise


def atomic_copy_file(src: str | Path, dst: str | Path) -> None:
    """Atomically publish a byte-for-byte copy of ``src`` at ``dst``.

    The copy streams through a bounded buffer (``shutil.copyfileobj``), so
    arbitrarily large part files never pass through memory whole.
    """
    dst = Path(dst)
    fd, temp = _open_temp(dst)
    try:
        with os.fdopen(fd, "wb") as out_handle, open(src, "rb") as in_handle:
            shutil.copyfileobj(in_handle, out_handle)
        os.replace(temp, dst)
    except BaseException:
        _discard(temp)
        raise


__all__ = ["atomic_write_text", "atomic_text_writer", "atomic_copy_file"]
