"""Zero-shot tag scoring against prompt-ensembled label queries.

A label query is the renormalized mean of a tag's prompt embeddings, one per
template, so scores against unit-norm inputs are plain cosines. Scores are
raw cosines rather than a softmax over tags: tagging is multi-label and tags
must not compete with each other.

`tag` writes its predictions JSONL and, beside it at "<predictions>.scores",
the same scores in binary, so that `eval` need not parse them back from
text. The JSONL stays the source of truth: a sidecar counts only when it is
whole and was written with exactly the JSONL's current bytes, and deleting
it is always safe. The sidecar is best effort: `tag` writes none beside a
predictions file that is not a regular file (a pipe, /dev/stdout) or over
a file that is not an SCR1 sidecar, and drops one it cannot create or
write; `eval` then parses the JSONL.

Its digests are plain sha256, not keyed: they catch a truncated, corrupt
or stale sidecar, not one made on purpose to disagree with the JSONL. A
sidecar is trusted, so evaluate predictions you did not write yourself
with their sidecar deleted.

Format SCR1 (little-endian):
    magic    4 bytes  b"SCR1"
    count    u32      images, in the JSONL's record order
    tags     u32      score keys per record
    tag_ids  tags * i64, the records' score keys in their order
    images   count times:
        id_len  u32
        id      id_len bytes, UTF-8
    scores   count * tags * f64, row-major: the values json.loads reads
             from the records (NaN as float("nan"))
    jsonl    32 bytes, sha256 of the JSONL file
    self     32 bytes, sha256 of every byte above
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import stat
import struct
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Sequence

import numpy as np

from . import textfile
from .embedding_store import EmbeddingTable, load_embeddings, save_embeddings
from .errors import TagforgeError

if TYPE_CHECKING:
    from .label_system import TagVocabulary

QUERY_NORM_TOLERANCE = 1e-6
PROMPT_NORM_TOLERANCE = 1e-4
DEFAULT_THRESHOLD = 0.2  # picked by calibrate_thresholds on synthetic validation data
SCORE_DECIMALS = 6  # decimals of the scores `tag` writes

PROMPT_KEY_SEPARATOR = "::"


class TaggerError(TagforgeError):
    pass


@dataclass
class LabelQueryMatrix:
    """One unit-norm query row per tag_id, rows in tag_id order."""

    vocab_version: str
    tag_ids: tuple[int, ...]
    canonicals: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.shape[0] != len(self.tag_ids) or len(self.tag_ids) != len(self.canonicals):
            raise TaggerError("tag_ids, canonicals and matrix rows must align")
        norms = np.linalg.norm(self.matrix, axis=1)
        off = np.abs(norms - 1.0) > QUERY_NORM_TOLERANCE
        if off.any():
            raise TaggerError(
                f"query row for tag {self.canonicals[int(np.argmax(off))]!r} is not unit norm"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass
class ThresholdProfile:
    default_threshold: float = DEFAULT_THRESHOLD
    overrides: dict[int, float] = field(default_factory=dict)

    def effective(self, tag_id: int) -> float:
        return self.overrides.get(tag_id, self.default_threshold)

    def thresholds(self, tag_ids: Sequence[int]) -> np.ndarray:
        """Effective threshold of each tag id, in the order given."""
        return np.asarray([self.effective(t) for t in tag_ids], dtype=np.float64)

    def validate_against(self, tag_ids: Sequence[int]) -> None:
        known = set(tag_ids)
        unknown = sorted(set(self.overrides) - known)
        if unknown:
            raise TaggerError(f"threshold overrides reference unknown tag_ids: {unknown}")


def prompt_key(template: str, canonical: str) -> str:
    return f"{template}{PROMPT_KEY_SEPARATOR}{canonical}"


def build_label_queries(
    vocab: TagVocabulary,
    prompt_embeddings: EmbeddingTable,
    templates: Sequence[str],
) -> LabelQueryMatrix:
    """Ensemble each tag's per-template prompt embeddings into one query.

    Every (template, canonical) pair must resolve to a unit-norm vector under
    the key "template::canonical"; the mean vector is renormalized.
    """
    if not templates:
        raise TaggerError("template list is empty")
    tag_ids = vocab.tag_ids()
    canonicals = vocab.canonicals

    missing = [
        (t, c) for c in canonicals for t in templates if prompt_key(t, c) not in prompt_embeddings
    ]
    if missing:
        listing = ", ".join(f"{t!r}/{c!r}" for t, c in missing[:20])
        more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
        raise TaggerError(f"missing prompt embeddings for (template, tag): {listing}{more}")

    rows = np.empty((len(tag_ids), prompt_embeddings.dim), dtype=np.float64)
    for i, canonical in enumerate(canonicals):
        prompts = np.asarray(
            [prompt_embeddings.vector(prompt_key(t, canonical)) for t in templates]
        )
        norms = np.linalg.norm(prompts, axis=1)
        off = np.abs(norms - 1.0) > PROMPT_NORM_TOLERANCE
        if off.any():
            bad = templates[int(np.argmax(off))]
            raise TaggerError(f"prompt embedding {prompt_key(bad, canonical)!r} is not unit norm")
        mean = prompts.mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm < 1e-12:
            raise TaggerError(f"prompt ensemble for tag {canonical!r} has zero mean vector")
        rows[i] = mean / norm
    return LabelQueryMatrix(vocab.version, tuple(tag_ids), canonicals, rows)


def score(embedding: np.ndarray, queries: LabelQueryMatrix) -> np.ndarray:
    """Cosine score per tag: dot products against the query rows."""
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.shape != (queries.dim,):
        raise TaggerError(
            f"dimension mismatch: embedding has shape {embedding.shape}, queries are {queries.dim}-d"
        )
    return queries.matrix @ embedding


def round_scores(values: np.ndarray) -> np.ndarray:
    """round(float(v), SCORE_DECIMALS) of every value, bit for bit.

    np.rint(v * 10**d) / 10**d gives Python's correctly rounded result except
    where the product lands on or next to a half (its own rounding may have
    crossed it) or is too large to keep a fraction; those values, rare in
    practice, go through Python's round.
    """
    values = np.asarray(values, dtype=np.float64)
    scale = 10.0**SCORE_DECIMALS
    with np.errstate(over="ignore", invalid="ignore"):
        y = values * scale
        out = np.rint(y) / scale
        near_half = np.abs(y - np.floor(y) - 0.5) < 1e-6
        exact = near_half | (np.abs(y) >= 2.0**52)
    for i in np.flatnonzero(exact):
        out[i] = round(float(values[i]), SCORE_DECIMALS)
    return out


WRITE_CHUNK_ROWS = 256  # images whose score text is laid out at once

# the end of each cell of the score layout, after the key's '"id": ' prefix
# and padding: sign, "0.", SCORE_DECIMALS digits and the ", " separator
_CELL_TAIL = b"-0.000000, "
_SIGN, _POINT, _DIGIT = -11, slice(-10, -8), -8  # _DIGIT: the first digit


class _ScoreText:
    """The text json.dumps writes between the braces of {"key": value, ...},
    for rows of round_scores values, a chunk of rows at a time.

    A value v with 100 <= |rint(v * 1e6)| < 1e6 is the double nearest to a
    six-decimal fraction under 1 in magnitude, and repr, so json.dumps,
    writes it as that fraction without trailing zeros: no shorter string
    rounds to v, and repr keeps fixed notation from 1e-4 up. Those cells are
    laid out in a fixed-width uint8 array and one boolean mask drops the
    bytes they do not use. Any other value (0.0, -0.0, |v| < 1e-4, |v| >= 1,
    NaN, inf) keeps only its key and separator there, and its json.dumps
    text is spliced in.
    """

    def __init__(self, keys: Sequence[str]):
        prefixes = [(json.dumps(k, ensure_ascii=False) + ": ").encode("utf-8") for k in keys]
        width = max(map(len, prefixes), default=0) + len(_CELL_TAIL)
        self.cells = np.zeros((len(keys), width), dtype=np.uint8)
        self.keep = np.zeros((len(keys), width), dtype=bool)
        for cell, kept, prefix in zip(self.cells, self.keep, prefixes):
            cell[: len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
            kept[: len(prefix)] = True
        self.cells[:, -len(_CELL_TAIL) :] = np.frombuffer(_CELL_TAIL, dtype=np.uint8)
        self.keep[:, -2:] = True
        self.keep[-1:, -2:] = False  # no separator after the last value
        self.prefix_lengths = np.array([len(p) for p in prefixes], dtype=np.int64)
        # bytes each cell keeps besides its value: key prefix and separator
        self.sizes = np.count_nonzero(self.keep, axis=1)

    def bodies(self, values: np.ndarray) -> list[str]:
        """The text of each row of values, an array of rows x keys."""
        rows = len(values)
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.rint(values * 10.0**SCORE_DECIMALS)
            fixed = (np.abs(scaled) >= 100) & (np.abs(scaled) < 10**SCORE_DECIMALS)
        text = np.empty((rows,) + self.cells.shape, dtype=np.uint8)
        text[:] = self.cells
        keep = np.empty(text.shape, dtype=bool)
        keep[:] = self.keep
        keep[:, :, _SIGN] = fixed & (scaled < 0)
        keep[:, :, _POINT] = fixed[:, :, None]
        rest = np.where(fixed, np.abs(scaled), 0).astype(np.int32)  # below 10**6
        nonzero = np.zeros(fixed.shape, dtype=bool)  # a digit from here on is not 0
        sizes = self.sizes + 2 * fixed + keep[:, :, _SIGN]  # bytes each cell keeps
        for place in range(SCORE_DECIMALS - 1, -1, -1):  # last digit first
            digit = rest - rest // 10 * 10
            rest //= 10
            text[:, :, _DIGIT + place] = digit + ord("0")
            nonzero |= digit != 0
            keep[:, :, _DIGIT + place] = nonzero
            sizes += nonzero
        joined = text[keep].tobytes().decode("utf-8")
        cell_ends = np.cumsum(sizes, axis=1)
        row_ends = np.cumsum(sizes.sum(axis=1)).tolist()
        bodies = [joined[a:b] for a, b in zip([0] + row_ends, row_ends)]
        for r in np.flatnonzero(~fixed.all(axis=1)):
            cols = np.flatnonzero(~fixed[r])
            at = (cell_ends[r] - sizes[r] + self.prefix_lengths)[cols].tolist()
            body, pieces, start = bodies[r], [], 0
            for end, value in zip(at, values[r, cols].tolist()):
                pieces += [body[start:end], json.dumps(value)]
                start = end
            bodies[r] = "".join(pieces) + body[start:]
        return bodies


def _hit_lists(hits: np.ndarray, tag_text: Sequence[str]) -> list[str]:
    """json.dumps of each row's list of hit tag ids, for hits a boolean
    array of rows x tags and tag_text each column's tag id as text."""
    texts = [tag_text[c] for c in np.nonzero(hits)[1].tolist()]  # row by row
    ends = np.cumsum(np.count_nonzero(hits, axis=1)).tolist()
    return ["[" + ", ".join(texts[a:b]) + "]" for a, b in zip([0] + ends, ends)]


def write_predictions(
    table: EmbeddingTable,
    queries: LabelQueryMatrix,
    profile: ThresholdProfile,
    path: str | Path,
) -> None:
    """One JSONL record per image, in image_id order: every tag's score
    rounded to SCORE_DECIMALS and the ascending tag ids that reach their
    threshold, as json.dumps(record, ensure_ascii=False) writes it.

    Records are made WRITE_CHUNK_ROWS images at a time, their scores
    through _ScoreText rather than one float repr at a time and their tag
    lists through _hit_lists. The same scores go to the SCR1 sidecar (see
    the module docstring) chunk by chunk. Embeddings of another dimension
    than the queries are refused before path is opened.
    """
    if table.dim != queries.dim:
        raise TaggerError(
            f"dimension mismatch: embeddings are {table.dim}-d, queries are {queries.dim}-d"
        )
    tag_ids = np.asarray(queries.tag_ids, dtype=np.int64)
    order = np.argsort(tag_ids)
    tag_text = [str(t) for t in tag_ids[order].tolist()]
    score_text = _ScoreText([str(t) for t in queries.tag_ids])
    thresholds = profile.thresholds(queries.tag_ids)
    image_ids = sorted(table.keys)
    with open(path, "wb") as fh, _SidecarWriter(fh, score_sidecar_path(path)) as sidecar:
        sidecar.put(SIDECAR_MAGIC + struct.pack("<II", len(image_ids), len(tag_ids)))
        sidecar.put(tag_ids.astype("<i8").tobytes())
        sidecar.put(b"".join(
            struct.pack("<I", len(encoded)) + encoded
            for encoded in (image_id.encode("utf-8") for image_id in image_ids)
        ))
        for start in range(0, len(image_ids), WRITE_CHUNK_ROWS):
            chunk = image_ids[start : start + WRITE_CHUNK_ROWS]
            # one matrix-vector product per image: a single matrix product
            # over all images may change the scores' low bits
            scores = np.stack([score(table.vector(image_id), queries) for image_id in chunk])
            hits = (scores >= thresholds)[:, order]
            rounded = round_scores(scores.ravel()).reshape(scores.shape)
            pieces: list[str] = []
            for image_id, body, tags in zip(
                chunk, score_text.bodies(rounded), _hit_lists(hits, tag_text)
            ):
                # encode_basestring(s) is json.dumps(s, ensure_ascii=False)
                # without the encoder json.dumps makes for that option
                pieces += ('{"image_id": ', encode_basestring(image_id), ', "scores": {',
                           body, '}, "tags": ', tags, "}\n")
            text = "".join(pieces).encode("utf-8")
            fh.write(text)
            sidecar.jsonl_digest.update(text)
            # json.loads reads every NaN the text holds as float("nan")
            sidecar.put(np.where(np.isnan(rounded), np.nan, rounded).astype("<f8").tobytes())


SIDECAR_MAGIC = b"SCR1"
_DIGEST_BYTES = 32  # sha256


def score_sidecar_path(predictions: str | Path) -> Path:
    return Path(str(predictions) + ".scores")


class _SidecarWriter:
    """The SCR1 sidecar, at path, of the predictions being written to
    `predictions`, best effort (see the module docstring). put() writes
    sidecar bytes, jsonl_digest takes the JSONL's bytes, and a clean exit
    ends the file with both digests; an exception drops the file."""

    def __init__(self, predictions: BinaryIO, path: Path):
        self.path, self.fh = path, None
        self.jsonl_digest, self.digest = hashlib.sha256(), hashlib.sha256()
        if stat.S_ISREG(os.fstat(predictions.fileno()).st_mode) and _replaceable(path):
            with contextlib.suppress(OSError):
                self.fh = open(path, "wb")

    def put(self, data: bytes) -> None:
        if self.fh is None:
            return
        self.digest.update(data)
        try:
            self.fh.write(data)
        except OSError:
            self.drop()

    def drop(self) -> None:
        """Close and delete the sidecar, if one is being written."""
        if self.fh is None:
            return
        fh, self.fh = self.fh, None
        with contextlib.suppress(OSError):
            fh.close()
        with contextlib.suppress(OSError):
            self.path.unlink()

    def __enter__(self) -> _SidecarWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.drop()
            return
        self.put(self.jsonl_digest.digest())
        self.put(self.digest.digest())
        if self.fh is not None:
            try:
                self.fh.close()
            except OSError:
                self.drop()


def _replaceable(path: Path) -> bool:
    """Whether tag may write its sidecar at path: nothing is there, or an
    SCR1 sidecar (or an empty file, one a killed run left) that it replaces."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return False
        with open(path, "rb") as fh:
            return fh.read(len(SIDECAR_MAGIC)) in (b"", SIDECAR_MAGIC)
    except FileNotFoundError:
        return True
    except OSError:
        return False


def read_score_sidecar(
    predictions: str | Path,
) -> tuple[list[str], list[int], np.ndarray] | None:
    """(image ids, tag ids, scores matrix) of the predictions JSONL at
    predictions, read from its SCR1 sidecar; None unless the sidecar is
    there, its own digest checks, its structure fills it exactly, its tag
    ids are distinct (json.loads would merge repeated keys) and it was
    written with exactly the bytes the JSONL holds now. The matrix is a
    read-only view, one row per image id."""
    try:
        data = score_sidecar_path(predictions).read_bytes()
    except OSError:
        return None
    body_end = len(data) - 2 * _DIGEST_BYTES  # where the JSONL digest starts
    if (
        body_end < 12
        or data[:4] != SIDECAR_MAGIC
        or hashlib.sha256(memoryview(data)[:-_DIGEST_BYTES]).digest() != data[-_DIGEST_BYTES:]
    ):
        return None
    count, tags = struct.unpack_from("<II", data, 4)
    offset = 12 + 8 * tags
    if offset > body_end:
        return None
    tag_ids = np.frombuffer(data, "<i8", tags, 12).tolist()
    image_ids = []
    for _ in range(count):  # each id takes 4 bytes at least, so the file bounds the loop
        if offset + 4 > body_end:
            return None
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if offset + length > body_end:
            return None
        try:
            image_ids.append(data[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError:
            return None
        offset += length
    if body_end - offset != 8 * count * tags or len(set(tag_ids)) != tags:
        return None
    try:
        if _file_sha256(predictions) != data[body_end:-_DIGEST_BYTES]:
            return None
    except OSError:
        return None
    matrix = np.frombuffer(data, "<f8", count * tags, offset).reshape(count, tags)
    return image_ids, tag_ids, matrix


def _file_sha256(path: str | Path) -> bytes:
    with open(path, "rb") as fh:
        digest = hashlib.sha256()
        while block := fh.read(1 << 20):
            digest.update(block)
        return digest.digest()


def calibrate_thresholds(
    scores_matrix: np.ndarray,
    labels_matrix: np.ndarray,
    tag_ids: Sequence[int],
    grid: Sequence[float],
) -> ThresholdProfile:
    """Grid-search thresholds on validation data.

    Per-tag threshold maximizes that tag's F1 (ties resolved toward the
    larger threshold); classes lacking a positive or a negative keep the
    default. The default is the grid value maximizing micro-F1 over all
    (image, class) cells.
    """
    if len(grid) == 0:
        raise TaggerError("threshold grid is empty")
    scores_matrix = np.asarray(scores_matrix, dtype=np.float64)
    labels_matrix = np.asarray(labels_matrix)
    if scores_matrix.shape != labels_matrix.shape:
        raise TaggerError("scores and labels must have identical shape")
    if scores_matrix.shape[1] != len(tag_ids):
        raise TaggerError("column count must match tag_ids")

    grid_sorted = sorted(set(float(g) for g in grid))
    positives = labels_matrix == 1
    pos = np.count_nonzero(positives, axis=0)
    # per (grid value, class): true positives and predicted positives
    tp = np.empty((len(grid_sorted), len(tag_ids)), dtype=np.int64)
    predicted = np.empty_like(tp)
    for g, t in enumerate(grid_sorted):
        pred = scores_matrix >= t
        tp[g] = np.count_nonzero(pred & positives, axis=0)
        predicted[g] = np.count_nonzero(pred, axis=0)

    # F1 = 2tp / (2tp + fp + fn) = 2tp / (predicted + positives)
    micro = _f1(tp.sum(axis=1), predicted.sum(axis=1) + pos.sum())
    per_class = _f1(tp, predicted + pos)
    best_default = grid_sorted[_last_argmax(micro)]

    # eligible classes need a positive and a negative; a tag repeated over
    # columns takes its best F1, at the largest threshold reaching it
    best_per_tag: dict[int, tuple[float, int]] = {}
    last = _last_argmax(per_class)
    for c in np.flatnonzero((pos > 0) & (pos < len(positives))):
        key = (per_class[last[c], c], last[c])
        tag = tag_ids[c]
        best_per_tag[tag] = max(best_per_tag.get(tag, key), key)
    overrides = {tag: grid_sorted[g] for tag, (_, g) in best_per_tag.items()}
    return ThresholdProfile(default_threshold=best_default, overrides=overrides)


def _f1(tp: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """2tp / denom elementwise, 0 where denom is 0."""
    return np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)


def _last_argmax(values: np.ndarray) -> np.ndarray:
    """Index of the last maximum along axis 0: ties go to the larger threshold."""
    return len(values) - 1 - np.argmax(values[::-1], axis=0)


# -- persistence --------------------------------------------------------------


def save_label_queries(queries: LabelQueryMatrix, path: str | Path, templates: Sequence[str]) -> None:
    """EMB1 file keyed by canonical surface plus a JSON sidecar header."""
    table = EmbeddingTable(queries.canonicals, queries.matrix, normalized=True)
    save_embeddings(table, path)
    sidecar = {
        "vocab_version": queries.vocab_version,
        "templates": list(templates),
        "tag_ids": list(queries.tag_ids),
    }
    Path(str(path) + ".meta.json").write_text(
        json.dumps(sidecar, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def load_label_queries(path: str | Path, vocab: TagVocabulary) -> LabelQueryMatrix:
    sidecar_path = Path(str(path) + ".meta.json")
    if not sidecar_path.is_file():
        raise TaggerError(f"missing sidecar header {sidecar_path}")
    sidecar = _query_header(sidecar_path)
    if sidecar.get("vocab_version") != vocab.version:
        raise TaggerError(
            f"label queries were built for vocabulary version {sidecar.get('vocab_version')!r}, "
            f"loaded vocabulary is {vocab.version!r}"
        )
    table = load_embeddings(path)
    canonicals = vocab.canonicals
    if sorted(table.keys) != sorted(canonicals):
        raise TaggerError("label query keys do not match the vocabulary canonicals")
    rows = table.rows(canonicals)  # (0, dim) for an empty vocabulary
    return LabelQueryMatrix(vocab.version, tuple(vocab.tag_ids()), canonicals, rows)


def _query_header(path: Path) -> dict:
    """The JSON object that save_label_queries wrote to path."""
    text = "\n".join(line for _, line in textfile.lines(path, TaggerError))
    try:
        header = json.loads(text)
    except (ValueError, RecursionError):
        raise TaggerError(f"{path}: not JSON") from None
    if not isinstance(header, dict):
        raise TaggerError(f"{path}: not a JSON object")
    return header


def save_threshold_profile(profile: ThresholdProfile, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"*\t{profile.default_threshold!r}\n")
        for tag_id in sorted(profile.overrides):
            fh.write(f"{tag_id}\t{profile.overrides[tag_id]!r}\n")


def load_threshold_profile(path: str | Path | None) -> ThresholdProfile:
    """The profile at path; no path means the flat default profile."""
    if path is None:
        return ThresholdProfile()
    default: float | None = None
    overrides: dict[int, float] = {}
    for lineno, line in textfile.rows(textfile.lines(path, TaggerError)):
        parts = line.split("\t")
        if len(parts) != 2:
            raise TaggerError(f"{path}:{lineno}: expected 'tag_id<TAB>threshold'")
        try:
            value = float(parts[1])
        except ValueError:
            raise TaggerError(f"{path}:{lineno}: bad threshold {parts[1]!r}") from None
        if not -1.0 <= value <= 1.0:
            raise TaggerError(f"{path}:{lineno}: threshold {value} outside [-1, 1]")
        if parts[0] == "*":
            if default is not None:
                raise TaggerError(f"{path}:{lineno}: repeated '*' default row")
            default = value
        else:
            try:
                tag_id = int(parts[0])
            except ValueError:
                raise TaggerError(f"{path}:{lineno}: bad tag_id {parts[0]!r}") from None
            if tag_id in overrides:
                raise TaggerError(f"{path}:{lineno}: repeated tag_id {tag_id}")
            overrides[tag_id] = value
    if default is None:
        raise TaggerError(f"{path}: missing '*' default threshold row")
    return ThresholdProfile(default_threshold=default, overrides=overrides)


def load_templates(path: str | Path) -> list[str]:
    """Prompt templates, one per line; '{tag}' marks the canonical slot."""
    templates = [line.strip() for _, line in textfile.rows(textfile.lines(path, TaggerError))]
    if not templates:
        raise TaggerError(f"{path}: no templates found")
    return templates
