"""JSON Lines, the format of every tagforge record file: read here, and
written through memo_dumps and write_lines.

Lines end as textfile states: U+0085, U+2028 and U+2029, which JSON strings
may hold, never end one. Blank lines, those that str.strip() empties, are
skipped but counted. Lines are read lazily, one at a time.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import TagforgeError
from .textfile import invalid_utf8, open_text, undecodable

BATCH_LINES = 8192  # lines joined per write by write_lines
_JSON_WHITESPACE = " \t\n\r"

INVALID = object()  # the value of a line that is not one JSON value
NOT_UTF8 = object()  # the value of a line holding a byte that is not UTF-8


class RecordError(ValueError):
    """Raised by a build step to reject a record with its own message."""


def decode(lines: Iterable[str]) -> Iterator[tuple[int, Any]]:
    """(line number, value) of each non-blank line; INVALID if not JSON,
    NOT_UTF8 if it holds a byte that a surrogateescape reader escaped.

    A line's value is what json.loads(line) gives: raw_decode reads one value
    from the line stripped of JSON whitespace, which must end at its end.
    """
    raw_decode = json.JSONDecoder().raw_decode
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if undecodable(line):
            yield lineno, NOT_UTF8
            continue
        text = line.strip(_JSON_WHITESPACE)
        try:
            value, end = raw_decode(text)
            if end != len(text):
                value = INVALID
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


def image_id(obj) -> str:
    """A record's "image_id", a string: ids sort as strings, and 5 would pair with "5"."""
    return string(obj, "image_id")


def string(obj, field: str) -> str:
    """A record's field, if a string, as an id or key must be."""
    if not isinstance(value := obj[field], str):
        raise TypeError(f"{field} must be a string")
    return value


def tag_id(value) -> int:
    """value, a tag id, if a JSON integer within int64: not a bool, 1.0 or "1"."""
    if type(value) is not int:
        raise TypeError("tag id must be an integer")
    if not -(2**63) <= value < 2**63:
        raise ValueError("tag id outside int64")
    return value


def as_list(value, field: str) -> list:
    """value, a record's field, if a list: a string would be read item by item."""
    if not isinstance(value, list):
        raise TypeError(f"{field} must be a list")
    return value


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
