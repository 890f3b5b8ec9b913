"""File, line and record helpers shared by the pipeline commands.

Every text input is read through :func:`read_text` or :func:`read_lines`,
and every line-oriented format through :func:`parse_rows`, so an input
error reads ``path: line N: message`` whatever the format. Every record
type is built on :func:`record`.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import tempfile


def record(name: str, fields, defaults=None) -> type:
    """A named-tuple base for a record class, whose own ``__new__`` may check and coerce its fields.

    namedtuple's ``_make``, and so ``_replace``, would build with ``tuple.__new__`` and skip those
    checks; here ``_make`` calls the class, so every way of building a record runs them.
    """
    base = collections.namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", encoding=None):
    """Write to a temp file in the target directory, then rename over path.

    Readers never observe a half-written artifact, and a rerun that
    produces identical bytes leaves an identical file. The file gets the
    mode a plain open would give it, 0o666 less the umask, not mkstemp's 0o600.
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
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            os.chmod(fd, 0o666 & ~umask)
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


def read_text(path, parse=str):
    """parse(text of path); an error in the text or its decoding starts with the path.

    The file is read as strict UTF-8; a byte that does not decode reads ``path: line N: invalid UTF-8 (...)``.
    """
    return _read(path, lambda fh: parse(fh.read()))


def read_lines(path, parse):
    """read_text, but parse gets an iterator over split_lines(text), read as it pulls: no text is held."""
    return _read(path, lambda fh: parse(map(str.rstrip, fh, itertools.repeat("\n"))))  # at most one "\n" per line


def _read(path, parse):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except UnicodeDecodeError:  # its object may be one chunk: find the byte in the whole file
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data[: exc.start].count(b"\n") + 1
            raise ValueError(f"{path}: line {lineno}: invalid UTF-8 ({exc.reason} at byte {exc.start})") from None
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def parse_rows(lines, parse_row, start: int = 1):
    """Yield ``parse_row(line) -> (key, row)`` for every non-empty line, in order.

    Only empty lines are skipped; a line of spaces goes to parse_row. The
    first line is numbered ``start``. A ValueError from parse_row, or a key
    already seen on an earlier line, is raised as ``line N: message`` on reaching it.
    """
    first_line = {}
    for lineno, line in enumerate(lines, start):
        if not line:
            continue
        try:
            key, row = parse_row(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if key in first_line:
            raise ValueError(f"line {lineno}: duplicate id {key!r} (first on line {first_line[key]})")
        first_line[key] = lineno
        yield key, row


def is_plain_file_name(name: str) -> bool:
    """True when name names an entry directly inside a directory: no separator, not "." or ".."."""
    return name not in ("", ".", "..") and "/" not in name and os.sep not in name
