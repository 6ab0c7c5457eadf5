"""Text files read line by line: the line rule of every tagforge input, and
the text tables (lexicons, word and id lists, vocabulary, thresholds,
templates, engine stats, config).

A line ends at "\\n", "\\r\\n" or "\\r", as in a text-mode file, never at the
"\\f", U+2028 and the like that str.splitlines() also ends one at. A byte
that is not UTF-8 reads as a lone surrogate, so the reader names its line.
A text table skips blank lines and comments, lines whose first non-blank
character is "#": rows(lines(path, error)), where a format with header
lines reads them from lines() first.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import TagforgeError

# valid UTF-8 never decodes to a lone surrogate
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def open_text(path: str | Path):
    """The file at path as text, its lines ending as this module states."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def undecodable(line: str) -> bool:
    """Whether a line read by open_text holds a byte that is not UTF-8."""
    return not line.isascii() and _UNDECODABLE.search(line) is not None


def invalid_utf8(
    path: str | Path, error: Callable = TagforgeError,
    lineno: int | None = None, data: bytes | None = None,
):
    """error("{path}:{lineno}: invalid UTF-8"); lineno defaults to the line of
    the first byte of data (a pipe's bytes as read; by default the file's) that
    is not UTF-8, whichever part failed to decode first (`parse` decodes byte
    ranges in worker processes)."""
    if lineno is None:
        head = Path(path).read_bytes() if data is None else data
        try:
            head.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = head[: exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return error(f"{path}:{lineno}: invalid UTF-8")


def lines(path: str | Path, error: Callable) -> Iterator[tuple[int, str]]:
    """(number, text without its line end) of each non-blank line, up to the
    first one holding a byte that is not UTF-8, which raises invalid_utf8."""
    with open_text(path) as fh:
        text = fh.read()
    bad = None if text.isascii() else _UNDECODABLE.search(text)
    split = text[: bad.start() if bad else None].split("\n")
    numbered = enumerate(split if bad is None else split[:-1], 1)
    yield from [(lineno, line) for lineno, line in numbered if line.strip()]
    if bad is not None:
        raise invalid_utf8(path, error, len(split))


def rows(numbered: Iterable[tuple[int, str]]) -> Iterator[tuple[int, str]]:
    """The numbered lines that are not comments."""
    return (row for row in numbered if "#" not in row[1] or not row[1].lstrip().startswith("#"))
