"""JSON Lines, the format of every tagforge record file.

A line ends at "\\n", "\\r\\n" or "\\r", as in a text-mode file; U+0085,
U+2028 and U+2029, which JSON strings may hold, never end one. Blank lines
are skipped but counted. Lines are read lazily, BATCH_LINES at a time.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import TagforgeError

BATCH_LINES = 8192

INVALID = object()  # the value of a line that is not one JSON value
NOT_UTF8 = object()  # the value of a line holding a byte that is not UTF-8

# a byte that is not UTF-8, as a file opened with errors="surrogateescape"
# reads it; valid UTF-8 never decodes to a lone surrogate
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class RecordError(ValueError):
    """Raised by a build step to reject a record with its own message."""


def _decode_batch(lines: list[str]) -> list | None:
    """The JSON value of each of lines, from one json.loads call; None when
    they must be decoded one by one.

    Joined as "[" + ",".join(lines) + "]", lines that are not one JSON value
    each could still decode, such as a record split over two lines next to
    a line holding two records. So each line goes into its own array, and
    the join is trusted only when no line holds a bracket: then the arrays'
    brackets can only pair up line by line, as no JSON string spans the
    newline between two lines.
    """
    if any("[" in line or "]" in line for line in lines):
        return None
    try:
        groups = json.loads("[[" + "],\n[".join(lines) + "]]")
        return [value for (value,) in groups]  # ValueError unless one value each
    except (ValueError, RecursionError):
        return None


def _undecodable(line: str) -> bool:
    return not line.isascii() and _UNDECODABLE.search(line) is not None


def decode(lines: Iterable[str]) -> Iterator[tuple[int, Any]]:
    """(line number, value) of each non-blank line; INVALID if not JSON,
    NOT_UTF8 if it holds a byte that a surrogateescape reader escaped."""
    rest = iter(lines)
    done = 0  # lines read before this chunk
    while chunk := list(islice(rest, BATCH_LINES)):
        # line numbers and lines, not a tuple per line: the tuples would set off
        # cyclic garbage collections that scan every record decoded so far
        numbers = [lineno for lineno, line in enumerate(chunk, done + 1) if line.strip()]
        batch = [chunk[lineno - done - 1] for lineno in numbers]
        done += len(chunk)
        decoded = None if any(map(_undecodable, batch)) else _decode_batch(batch)
        if decoded is not None:
            yield from zip(numbers, decoded)
            continue
        for lineno, line in zip(numbers, batch):
            try:
                value = NOT_UTF8 if _undecodable(line) else json.loads(line)
            except (ValueError, RecursionError):
                value = INVALID
            yield lineno, value


def values(lines: Iterable[str]) -> Iterator[Any]:
    return (value for _, value in decode(lines))


def read(
    path: str | Path, what: str, build: Callable, error: type[TagforgeError] = TagforgeError
) -> Iterator:
    """build(value) of each record of the JSONL file at path, in file order.

    The first line that is not JSON, or whose build raises ValueError,
    KeyError, TypeError, OverflowError or RecursionError, raises
    error("{path}:{lineno}: malformed {what} record"), or for a RecordError
    error("{path}:{lineno}: {its message}"), and a line holding a byte that
    is not UTF-8 error("{path}:{lineno}: invalid UTF-8"): the first bad line
    of the file is the one named, whichever way it is bad.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, value in decode(fh):
            if value is NOT_UTF8:
                raise error(f"{path}:{lineno}: invalid UTF-8")
            try:
                if value is INVALID:
                    raise ValueError("not JSON")
                record = build(value)
            except RecordError as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
                raise error(f"{path}:{lineno}: malformed {what} record") from None
            yield record


def invalid_utf8(path: str | Path) -> TagforgeError:
    """TagforgeError("{path}:{lineno}: invalid UTF-8") naming the line that
    holds the file's first byte that is not UTF-8, whichever part of the file
    failed to decode first (`parse` decodes shards in worker processes);
    lines end as in decode."""
    head = Path(path).read_bytes()
    try:
        head.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = head[: exc.start]
    lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return TagforgeError(f"{path}:{lineno}: invalid UTF-8")
