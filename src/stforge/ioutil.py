"""Small file and line helpers shared by the pipeline commands."""

from __future__ import annotations

import contextlib
import os
import tempfile


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", encoding=None):
    """Write to a temp file in the target directory, then rename over path.

    Readers never observe a half-written artifact, and a rerun that
    produces identical bytes leaves an identical file.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise ValueError(f"atomic_write only supports fresh writes, got mode {mode!r}")
    if encoding is None and "b" not in mode:
        encoding = "utf-8"
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-" + os.path.basename(path) + "-")
    try:
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def split_lines(text: str) -> list[str]:
    """Split text at line feeds only; as with str.splitlines, a final one adds no empty line.

    str.splitlines also splits at U+0085, U+2028, form feeds and other
    characters that a field may hold. Files are read in universal-newline
    mode, so CRLF line ends are line feeds by then.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def is_plain_file_name(name: str) -> bool:
    """True when name names an entry directly inside a directory: no separator, not "." or ".."."""
    return name not in ("", ".", "..") and "/" not in name and os.sep not in name
