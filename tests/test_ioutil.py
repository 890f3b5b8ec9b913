"""The shared readers and writer: read_lines hands out the lines of read_text's text, with the same
errors, and atomic_write leaves the file a plain open would."""

import os
import re
import stat
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stforge.ioutil import atomic_write, parse_rows, read_lines, read_text, split_lines

# line ends of every kind, the Unicode breaks that end no line here, and
# multi-byte characters for an invalid byte to land inside
PIECES = ["a", "é", "€", "\n", "\r\n", "\r", "\x85", " ", "\x0c", "\t", " ", "\n\n"]
texts = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)
# lengths that put the pieces on either side of the text reader's 8 KiB chunks
PADS = (0, 8190, 8191, 8192, 20000)


def file_with(tmp, data: bytes) -> str:
    path = os.path.join(tmp, "input.txt")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@given(text=texts, pad=st.sampled_from(PADS))
@example(text="\r\nb", pad=8191)  # a CRLF split across two chunks
@example(text="\rb", pad=8191)
@example(text="", pad=0)
@settings(max_examples=300, deadline=None)
def test_read_lines_are_the_split_text(text, pad):
    with tempfile.TemporaryDirectory() as tmp:
        path = file_with(tmp, ("x" * pad + text).encode("utf-8"))
        assert read_lines(path, list) == split_lines(read_text(path))


BAD_BYTES = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\x80"]


@given(text=texts, pad=st.sampled_from(PADS), at=st.integers(0, 10**6), bad=st.sampled_from(BAD_BYTES))
@settings(max_examples=300, deadline=None)
def test_invalid_utf8_reads_as_in_read_text(text, pad, at, bad):
    data = ("x" * pad + text).encode("utf-8")
    at %= len(data) + 1
    data = data[:at] + bad + data[at:]
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data[: exc.start].count(b"\n") + 1
        detail = f"line {lineno}: invalid UTF-8 ({exc.reason} at byte {exc.start})"
    else:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = file_with(tmp, data)
        with pytest.raises(ValueError) as from_lines:
            read_lines(path, list)
        with pytest.raises(ValueError) as from_text:
            read_text(path)
    assert str(from_lines.value) == str(from_text.value) == f"{path}: {detail}"


def test_lines_are_read_as_parse_pulls_them(tmp_path):
    # an invalid byte past where parse stops is never decoded
    path = tmp_path / "rows.txt"
    path.write_bytes(b"first\n" + b"x" * 50000 + b"\n\xff\n")
    assert read_lines(path, next) == "first"


def test_an_error_from_parse_starts_with_the_path(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\t1\nb\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: expected a tab$"):
        read_lines(path, lambda lines: dict(parse_rows(lines, tab_row)))


def tab_row(line):
    key, tab, value = line.partition("\t")
    if not tab:
        raise ValueError("expected a tab")
    return key, value


def test_parse_rows_streams_up_to_the_bad_line():
    rows = parse_rows(iter(["a\t1", "", "b\t2", "a\t3"]), tab_row)
    assert next(rows) == ("a", "1")
    assert next(rows) == ("b", "2")
    with pytest.raises(ValueError, match=r"^line 4: duplicate id 'a' \(first on line 1\)$"):
        next(rows)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
@pytest.mark.parametrize("mode", ["w", "wb"])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask, mode):
    data = "x" if mode == "w" else b"x"
    (tmp_path / "atomic").write_text("old", encoding="utf-8")
    os.chmod(tmp_path / "atomic", 0o600)  # the file replaced does not set the mode
    old_umask = os.umask(umask)
    try:
        with atomic_write(tmp_path / "atomic", mode) as fh:
            fh.write(data)
        with open(tmp_path / "plain", mode) as fh:
            fh.write(data)
        assert os.umask(umask) == umask  # and the umask is left as it was
    finally:
        os.umask(old_umask)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("atomic", "plain")]
    assert modes == [0o666 & ~umask] * 2
    assert (tmp_path / "atomic").read_bytes() == b"x"
