"""JSON Lines, the format of every tagforge record file: read here, and
written through memo_dumps and write_lines.

Lines end as textfile states: U+0085, U+2028 and U+2029, which JSON strings
may hold, never end one. Blank lines are skipped but counted. Lines are read
lazily, BATCH_LINES at a time.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import TagforgeError
from .textfile import invalid_utf8, open_text, undecodable

BATCH_LINES = 8192

INVALID = object()  # the value of a line that is not one JSON value
NOT_UTF8 = object()  # the value of a line holding a byte that is not UTF-8


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
        decoded = None if any(map(undecodable, batch)) else _decode_batch(batch)
        if decoded is not None:
            yield from zip(numbers, decoded)
            continue
        for lineno, line in zip(numbers, batch):
            try:
                value = NOT_UTF8 if undecodable(line) else json.loads(line)
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
    with open_text(path) as fh:
        for lineno, value in decode(fh):
            if value is NOT_UTF8:
                raise invalid_utf8(path, error, lineno)
            try:
                if value is INVALID:
                    raise ValueError("not JSON")
                record = build(value)
            except RecordError as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
                raise error(f"{path}:{lineno}: malformed {what} record") from None
            yield record


def memo_dumps() -> Callable[[Any], str]:
    """json.dumps(value, ensure_ascii=False), memoized for str and int values.
    Other values are dumped on every call: 1.0 and True are equal to 1 as
    dict keys, but each has its own text."""
    memo: dict = {}

    def dumps(value) -> str:
        kind = type(value)
        if kind is str or kind is int:
            text = memo.get(value)
            if text is None:
                text = memo[value] = json.dumps(value, ensure_ascii=False)
            return text
        return json.dumps(value, ensure_ascii=False)

    return dumps


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write lines, each ending in a newline, to a UTF-8 file, joined
    BATCH_LINES at a time, so what is held at once stays bounded."""
    with open(path, "w", encoding="utf-8") as fh:
        rest = iter(lines)
        while chunk := list(islice(rest, BATCH_LINES)):
            fh.write("".join(chunk))
