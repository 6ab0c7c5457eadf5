"""Rule-based parsing of image captions into candidate tags.

The pipeline is deterministic and entirely lexicon-driven:

1. lowercase the caption and strip punctuation, keeping intra-word hyphens
   and apostrophes;
2. tokenize on whitespace (possessive ``'s`` endings are dropped);
3. lemmatize each token with an exceptions-first suffix stripper;
4. POS-tag each lemma by lexicon lookup, unknown words default to NOUN
   (captions are noun-heavy, recall on objects matters most);
5. chunk maximal ``ADJ* NOUN+`` phrases.

Each chunk emits: every adjacent noun-noun bigram as a compound object tag,
then every noun as an object tag, then its adjectives as attribute tags.
Non-auxiliary verbs emit action tags. The final list is ordered objects
first, then attributes, then actions, each group in reading order,
deduplicated by (surface, kind). Stopwords are never emitted and break
chunks.
"""

from __future__ import annotations

import io
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

from . import jsonl, textfile
from .errors import TagforgeError
from .pool import run_tasks

KIND_OBJECT = "object"
KIND_ATTRIBUTE = "attribute"
KIND_ACTION = "action"

KIND_ORDER = {KIND_OBJECT: 0, KIND_ATTRIBUTE: 1, KIND_ACTION: 2}

POS_TAGS = frozenset({"NOUN", "ADJ", "VERB", "AUX", "DET", "PREP", "PRON", "OTHER"})

POS_LEXICON_FILE = "pos_lexicon.tsv"
LEMMA_EXCEPTIONS_FILE = "lemma_exceptions.tsv"
STOPWORDS_FILE = "stopwords.txt"

DATA_DIR_ENV = "TAGFORGE_DATA_DIR"

# Everything that is not a word character, apostrophe or hyphen separates
# tokens; underscores count as separators too.
_SEPARATOR_RE = re.compile(r"[^\w'-]+|_+", re.UNICODE)

# Suffixes where "-es" genuinely attaches (stem check after stripping "es").
_ES_STEM_ENDINGS = ("ch", "sh", "ss", "x", "zz", "o")

# Doubled finals kept intact when undoubling ("falling", "kissing", "sniffing").
_NO_UNDOUBLE = frozenset("aeiouflsz")


@dataclass(frozen=True)
class LexiconBundle:
    """Immutable POS lexicon, lemma exceptions, and stopword set."""

    pos_lexicon: Mapping[str, str]
    lemma_exceptions: Mapping[str, str]
    stopwords: frozenset[str]


class LexiconError(TagforgeError):
    pass


def default_lexicon_dir() -> Path:
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def load_lexicons(directory: str | Path | None = None) -> LexiconBundle:
    """Load the three lexicon files from a directory (default:
    default_lexicon_dir()); each call reads them afresh."""
    directory = Path(directory) if directory is not None else default_lexicon_dir()
    pos_path = directory / POS_LEXICON_FILE
    exc_path = directory / LEMMA_EXCEPTIONS_FILE
    stop_path = directory / STOPWORDS_FILE
    for path in (pos_path, exc_path, stop_path):
        if not path.is_file():
            raise LexiconError(f"missing lexicon file: {path}")

    pos_lexicon: dict[str, str] = {}
    for lineno, line in textfile.rows(textfile.lines(pos_path, LexiconError)):
        try:
            word, pos = line.split("\t")
        except ValueError:
            raise LexiconError(f"{pos_path}:{lineno}: expected 'word<TAB>POS'") from None
        if pos not in POS_TAGS:
            raise LexiconError(f"{pos_path}:{lineno}: unknown POS tag {pos!r}")
        pos_lexicon[word.lower()] = pos

    lemma_exceptions: dict[str, str] = {}
    for lineno, line in textfile.rows(textfile.lines(exc_path, LexiconError)):
        try:
            inflected, lemma = line.split("\t")
        except ValueError:
            raise LexiconError(f"{exc_path}:{lineno}: expected 'inflected<TAB>lemma'") from None
        lemma_exceptions[inflected.lower()] = lemma.lower()

    stopwords = frozenset(
        line.strip().lower() for _, line in textfile.rows(textfile.lines(stop_path, LexiconError))
    )

    bundle = LexiconBundle(pos_lexicon, lemma_exceptions, stopwords)
    _validate_exceptions(bundle, exc_path)
    return bundle


def _validate_exceptions(bundle: LexiconBundle, path: Path) -> None:
    # every mapped lemma must itself lemmatize to itself
    for inflected, lemma in bundle.lemma_exceptions.items():
        if lemmatize(lemma, bundle) != lemma:
            raise LexiconError(
                f"{path}: lemma exception {inflected!r} -> {lemma!r} is not a fixed point"
            )


def lemmatize(token: str, lexicons: LexiconBundle) -> str:
    """Reduce a lowercase token to its lemma.

    Exceptions win over rules. The rules fire in a fixed order and a rule is
    skipped when the stem it leaves would be shorter than two characters:

    - ``-ies`` -> ``-y``
    - ``-es`` -> removed, only after ch/sh/ss/x/zz/o stems of length >= 3
    - ``-s`` -> removed, unless the token ends in ``-ss``
    - ``-ing`` -> removed, undoubling a doubled final consonant
    - ``-ed`` -> removed, undoubling a doubled final consonant
    """
    hit = lexicons.lemma_exceptions.get(token)
    if hit is not None:
        return hit
    if token.endswith("ies"):
        stem = token[:-3] + "y"
        if len(stem) >= 2:
            return stem
    if token.endswith("es"):
        stem = token[:-2]
        if len(stem) >= 3 and stem.endswith(_ES_STEM_ENDINGS):
            return stem
    if token.endswith("s") and not token.endswith("ss"):
        stem = token[:-1]
        if len(stem) >= 2:
            return stem
    if token.endswith("ing"):
        stem = token[:-3]
        if len(stem) >= 2:
            return _undouble(stem)
    if token.endswith("ed"):
        stem = token[:-2]
        if len(stem) >= 2:
            return _undouble(stem)
    return token


def _undouble(stem: str) -> str:
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in _NO_UNDOUBLE:
        return stem[:-1]
    return stem


def tokenize(caption: str) -> list[str]:
    """Lowercase, strip punctuation, split; keeps intra-word ' and -."""
    text = _SEPARATOR_RE.sub(" ", caption.lower().replace("’", "'"))
    tokens = []
    for raw in text.split():
        tok = raw.strip("'-")
        if tok.endswith("'s"):
            tok = tok[:-2].strip("'-")
        if tok:
            tokens.append(tok)
    return tokens


def _pos_of(lemma: str, lexicons: LexiconBundle) -> str:
    if lemma.isdigit():
        return "OTHER"
    return lexicons.pos_lexicon.get(lemma, "NOUN")


def extract_tags(caption: str, lexicons: LexiconBundle) -> list[tuple[str, str]]:
    """Run the full pipeline on one caption; returns (surface, kind) pairs."""
    lemmas = [lemmatize(t, lexicons) for t in tokenize(caption)]
    pos = [_pos_of(l, lexicons) for l in lemmas]
    stop = lexicons.stopwords

    objects: list[str] = []
    attributes: list[str] = []
    actions: list[str] = []

    n = len(lemmas)
    i = 0
    while i < n:
        lemma = lemmas[i]
        if lemma in stop:
            i += 1
            continue
        tag = pos[i]
        if tag == "VERB":
            actions.append(lemma)
            i += 1
        elif tag in ("ADJ", "NOUN"):
            j = i
            adjs: list[str] = []
            while j < n and pos[j] == "ADJ" and lemmas[j] not in stop:
                adjs.append(lemmas[j])
                j += 1
            nouns: list[str] = []
            while j < n and pos[j] == "NOUN" and lemmas[j] not in stop:
                nouns.append(lemmas[j])
                j += 1
            if nouns:
                for a, b in zip(nouns, nouns[1:]):
                    objects.append(a + " " + b)
                objects.extend(nouns)
                attributes.extend(adjs)
                i = j
            else:
                # adjective run with no noun head: nothing to emit
                i = max(j, i + 1)
        else:
            i += 1

    runs = ((objects, KIND_OBJECT), (attributes, KIND_ATTRIBUTE), (actions, KIND_ACTION))
    return list(dict.fromkeys((surface, kind) for surfaces, kind in runs for surface in surfaces))


@dataclass
class RejectSummary:
    count: int = 0
    reasons: Counter = field(default_factory=Counter)

    def add(self, reason: str) -> None:
        self.count += 1
        self.reasons[reason] += 1

    def merge(self, other: "RejectSummary") -> None:
        self.count += other.count
        self.reasons.update(other.reasons)


@dataclass
class CorpusParse:
    """Per-image (surface, kind) tags in canonical order, reject summary,
    corpus frequencies."""

    image_tags: dict[str, list[tuple[str, str]]]
    rejects: RejectSummary

    @cached_property
    def frequencies(self) -> dict[str, int]:
        frequencies: dict[str, int] = {}
        for tags in self.image_tags.values():
            seen: set[str] = set()
            for surface, _ in tags:
                if surface not in seen:
                    seen.add(surface)
                    frequencies[surface] = frequencies.get(surface, 0) + 1
        return frequencies


def _canonical_tag_order(tags: Iterable[tuple[str, str]]) -> list[tuple[str, str]]:
    """Distinct tags, objects then attributes then actions, each by surface."""
    return sorted(set(tags), key=lambda t: (KIND_ORDER[t[1]], t[0]))


def _coerce_record(obj) -> tuple[str, str] | str:
    """Returns (image_id, caption) or a reject reason string; any other
    field, such as "source", is not read."""
    if obj is jsonl.INVALID:
        return "invalid JSON"
    if not isinstance(obj, dict):
        return f"unsupported record type {type(obj).__name__}"
    image_id = obj.get("image_id")
    caption = obj.get("caption")
    if not isinstance(image_id, str):
        return "image_id missing or not a string"
    if not isinstance(caption, str):
        return "caption missing or not a string"
    if not image_id:
        return "image_id empty"
    return image_id, caption


def parse_corpus(records: Iterable, lexicons: LexiconBundle) -> CorpusParse:
    """Parse a stream of decoded JSON caption records; per-image tags are
    unioned.

    jsonl.INVALID (a line that is not JSON) and other non-captions are
    counted as rejects. The frequency table counts each (image, surface)
    pair once, no matter how many captions of that image mention it. Output
    is independent of record order. Equal tags are one tuple object, so a
    pickle of the result holds each distinct tag once.
    """
    shared: dict[tuple[str, str], tuple[str, str]] = {}
    image_tags: dict[str, list[tuple[str, str]]] = {}
    rejects = RejectSummary()
    for obj in records:
        rec = _coerce_record(obj)
        if isinstance(rec, str):
            rejects.add(rec)
            continue
        image_id, caption = rec
        tags = [shared.setdefault(tag, tag) for tag in extract_tags(caption, lexicons)]
        image_tags.setdefault(image_id, []).extend(tags)
    for image_id, tags in image_tags.items():
        image_tags[image_id] = _canonical_tag_order(tags)
    return CorpusParse(image_tags, rejects)


# -- corpus file parsing ----------------------------------------------------


def _shard_boundaries(path: Path, shards: int) -> list[tuple[int, int | None]]:
    """Byte ranges splitting the file at line boundaries; a pipe, or any
    path that is not a regular file, is one range (0, None): its whole stream."""
    if not path.is_file():
        return [(0, None)]
    size = path.stat().st_size
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, shards):
            fh.seek(size * i // shards)
            fh.readline()  # advance to the next line start
            cuts.append(min(fh.tell(), size))
    cuts.append(size)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _parse_range(lexicons: LexiconBundle, task: tuple[str, int, int | None]) -> CorpusParse:
    path, start, end = task
    with open(path, "rb") as fh:
        if start:  # a pipe, one range from 0, cannot seek
            fh.seek(start)
        blob = fh.read(-1 if end is None else end - start)
    # decoded lazily; newline=None reads lines as a text-mode file does
    lines = io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8", newline=None)
    try:
        return parse_corpus(jsonl.values(lines), lexicons)
    except UnicodeDecodeError:
        # named from the whole stream, so every range gives one message; a
        # pipe cannot be read again, so what was read names its line
        raise textfile.invalid_utf8(path, data=blob if end is None else None) from None


def parse_corpus_file(path: str | Path, lexicons: LexiconBundle, workers: int = 1) -> CorpusParse:
    """Parse a JSONL caption file with the caller's lexicons through
    pool.run_tasks, one byte range per worker, split at line boundaries; a
    pipe is one range.

    Each range returns canonical per-image lists of (surface, kind) tuples.
    Images whose captions straddle a range boundary are merged here by the
    same rule, so the result is identical for every worker count and range
    boundary.
    """
    path = Path(path)
    tasks = [(str(path), a, b) for a, b in _shard_boundaries(path, workers)]
    image_tags: dict[str, list[tuple[str, str]]] = {}
    rejects = RejectSummary()
    for part in run_tasks(_parse_range, tasks, lexicons, workers):
        for img, tags in part.image_tags.items():
            if img in image_tags:
                tags = _canonical_tag_order(image_tags[img] + tags)
            image_tags[img] = tags
        rejects.merge(part.rejects)
    return CorpusParse(image_tags, rejects)


# -- output writers / readers -----------------------------------------------


def write_image_tags(corpus: CorpusParse, path: str | Path) -> None:
    """Write per-image tags as JSONL, images sorted by id, each line as
    json.dumps({"image_id": ..., "tags": [{"surface": ..., "kind": ...}, ...]},
    ensure_ascii=False) writes it."""
    dumps = jsonl.memo_dumps()
    jsonl.write_lines(path, (
        f'{{"image_id": {dumps(image_id)}, "tags": ['
        + ", ".join(
            f'{{"surface": {dumps(surface)}, "kind": {dumps(kind)}}}'
            for surface, kind in corpus.image_tags[image_id]
        )
        + "]}\n"
        for image_id in sorted(corpus.image_tags)
    ))


def write_frequency_table(corpus: CorpusParse, path: str | Path) -> None:
    """Write the frequency table as TSV, count descending then lexicographic."""
    rows = sorted(corpus.frequencies.items(), key=lambda kv: (-kv[1], kv[0]))
    with open(path, "w", encoding="utf-8") as fh:
        for surface, count in rows:
            fh.write(f"{surface}\t{count}\n")


def read_frequency_table(path: str | Path) -> dict[str, int]:
    """The `surface<TAB>count` rows; a repeated surface or a negative count
    is refused."""
    freq: dict[str, int] = {}
    for lineno, line in textfile.rows(textfile.lines(path, TagforgeError)):
        try:
            surface, count = line.split("\t")
            count = int(count)
        except ValueError:
            raise TagforgeError(f"{path}:{lineno}: expected 'surface<TAB>count'") from None
        if surface in freq:
            raise TagforgeError(f"{path}:{lineno}: repeated surface {surface!r}")
        if count < 0:
            raise TagforgeError(f"{path}:{lineno}: negative count {count}")
        freq[surface] = count
    return freq
