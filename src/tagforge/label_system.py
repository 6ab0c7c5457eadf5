"""Unified tag vocabulary: top-k corpus tags plus seed lists, merged into
synonym groups that share a tag ID.

Groups are produced by union-find over declared synonym pairs, restricted to
the candidate set. Each group's canonical surface is its highest-frequency
member (ties broken lexicographically) and tag IDs are dense integers
assigned in canonical-surface lexicographic order. IDs are therefore
re-derived on every build and are not stable across vocabulary versions;
the version hash in the file header is there to warn consumers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import textfile
from .caption_parser import LexiconBundle, lemmatize
from .errors import TagforgeError

VOCAB_HEADER = "#tagforge-vocab v1"

ORIGIN_CORPUS = "corpus"
ORIGIN_SEED = "seed"
ORIGIN_BOTH = "both"


class VocabularyError(TagforgeError):
    pass


@dataclass(frozen=True)
class VocabEntry:
    surface: str
    tag_id: int
    frequency: int
    is_canonical: bool
    origin: str


@dataclass(frozen=True)
class SynonymLexicon:
    pairs: tuple[tuple[str, str], ...]


class TagVocabulary:
    """Immutable vocabulary with surface -> tag_id lookups."""

    def __init__(self, entries: Sequence[VocabEntry], version: str):
        self.entries: tuple[VocabEntry, ...] = tuple(
            sorted(entries, key=lambda e: (e.tag_id, not e.is_canonical, e.surface))
        )
        self.version = version
        self.groups: dict[int, tuple[str, ...]] = {}
        self.canonicals: dict[int, str] = {}
        self.surface_to_id: dict[str, int] = {}
        grouped: dict[int, list[str]] = {}
        for entry in self.entries:
            if entry.surface in self.surface_to_id:
                raise VocabularyError(f"duplicate surface {entry.surface!r}")
            self.surface_to_id[entry.surface] = entry.tag_id
            grouped.setdefault(entry.tag_id, []).append(entry.surface)
            if entry.is_canonical:
                if entry.tag_id in self.canonicals:
                    raise VocabularyError(f"tag_id {entry.tag_id} has two canonicals")
                self.canonicals[entry.tag_id] = entry.surface
        self.groups = {tid: tuple(sorted(members)) for tid, members in grouped.items()}
        ids = sorted(self.groups)
        if ids != list(range(len(ids))):
            raise VocabularyError("tag_ids are not dense integers starting at 0")
        missing = [tid for tid in ids if tid not in self.canonicals]
        if missing:
            raise VocabularyError(f"groups without a canonical surface: {missing}")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def tag_ids(self) -> list[int]:
        return sorted(self.groups)

    def canonical_list(self) -> list[str]:
        return [self.canonicals[tid] for tid in self.tag_ids()]


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller surface becomes the root
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def build_label_system(
    freq: Mapping[str, int],
    k: int,
    seeds: Sequence[Sequence[str]] = (),
    synonyms: SynonymLexicon | None = None,
    excludes: Iterable[str] = (),
) -> TagVocabulary:
    """Build the vocabulary from a frequency table plus seed/exclude lists.

    Candidates are the top-k most frequent surfaces (ties lexicographic)
    unioned with all seed surfaces, minus excludes. Synonym pairs touching a
    surface outside the candidate set are silently restricted to the members
    that remain. Seed surfaces absent from the corpus get frequency 0.
    """
    if k < 0:
        raise VocabularyError("k must be >= 0")
    excludes = set(excludes)

    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    top = [surface for surface, _ in ranked[:k]]
    seed_surfaces: set[str] = set()
    for seed_list in seeds:
        seed_surfaces.update(seed_list)

    candidates = (set(top) | seed_surfaces) - excludes
    if not candidates:
        return TagVocabulary([], _version_of([]))

    uf = _UnionFind(candidates)
    if synonyms is not None:
        for a, b in synonyms.pairs:
            if a == b:
                continue
            if a in candidates and b in candidates:
                uf.union(a, b)

    groups: dict[str, list[str]] = {}
    for surface in candidates:
        groups.setdefault(uf.find(surface), []).append(surface)

    top_set = set(top)

    def freq_of(surface: str) -> int:
        return freq.get(surface, 0)

    def origin_of(surface: str) -> str:
        in_corpus = surface in top_set
        in_seed = surface in seed_surfaces
        if in_corpus and in_seed:
            return ORIGIN_BOTH
        return ORIGIN_CORPUS if in_corpus else ORIGIN_SEED

    # canonical = highest frequency, ties lexicographically smallest
    canonical_to_members: dict[str, list[str]] = {}
    for members in groups.values():
        canonical = min(members, key=lambda s: (-freq_of(s), s))
        canonical_to_members[canonical] = sorted(members)

    entries: list[VocabEntry] = []
    for tag_id, canonical in enumerate(sorted(canonical_to_members)):
        for surface in canonical_to_members[canonical]:
            entries.append(
                VocabEntry(
                    surface=surface,
                    tag_id=tag_id,
                    frequency=freq_of(surface),
                    is_canonical=surface == canonical,
                    origin=origin_of(surface),
                )
            )
    return TagVocabulary(entries, _version_of(entries))


def _group_rows(entries: Sequence[VocabEntry]) -> list[str]:
    by_id: dict[int, list[VocabEntry]] = {}
    for entry in entries:
        by_id.setdefault(entry.tag_id, []).append(entry)
    rows = []
    for tag_id in sorted(by_id):
        group = by_id[tag_id]
        canonical = next(e.surface for e in group if e.is_canonical)
        members = "|".join(sorted(e.surface for e in group))
        total = sum(e.frequency for e in group)
        origins = {e.origin for e in group}
        if origins == {ORIGIN_CORPUS}:
            origin = ORIGIN_CORPUS
        elif origins == {ORIGIN_SEED}:
            origin = ORIGIN_SEED
        else:
            origin = ORIGIN_BOTH
        rows.append(f"{tag_id}\t{canonical}\t{members}\t{total}\t{origin}")
    return rows


def _version_of(entries: Sequence[VocabEntry]) -> str:
    payload = "\n".join(_group_rows(entries)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]


def save_vocabulary(vocab: TagVocabulary, path: str | Path) -> None:
    """Write the vocabulary file. Frequency and origin are group-level:
    frequency is the sum over members, origin the merge of member origins."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(VOCAB_HEADER + "\n")
        fh.write(f"#version={vocab.version}\n")
        for row in _group_rows(vocab.entries):
            fh.write(row + "\n")


def load_vocabulary(path: str | Path) -> TagVocabulary:
    """Load a vocabulary file.

    The file stores group-level frequency and origin, so every member entry
    of a loaded group carries the group's values.
    """
    numbered = textfile.lines(path, VocabularyError)
    header = [line for _, line in islice(numbered, 2)]
    if header[:1] != [VOCAB_HEADER]:
        raise VocabularyError(f"{path}: missing header {VOCAB_HEADER!r}")
    prefix = "#version="
    version = header[1][len(prefix):] if header[1:] and header[1].startswith(prefix) else ""
    if not version:
        raise VocabularyError(f"{path}: missing #version line")
    entries: list[VocabEntry] = []
    for lineno, line in textfile.rows(numbered):
        parts = line.split("\t")
        if len(parts) != 5:
            raise VocabularyError(f"{path}:{lineno}: expected 5 tab-separated fields")
        tag_id_s, canonical, members_s, freq_s, origin = parts
        try:
            tag_id = int(tag_id_s)
            frequency = int(freq_s)
        except ValueError:
            raise VocabularyError(f"{path}:{lineno}: bad integer field") from None
        if origin not in (ORIGIN_CORPUS, ORIGIN_SEED, ORIGIN_BOTH):
            raise VocabularyError(f"{path}:{lineno}: unknown origin {origin!r}")
        members = members_s.split("|")
        if canonical not in members:
            raise VocabularyError(f"{path}:{lineno}: canonical not among members")
        entries += (VocabEntry(s, tag_id, frequency, s == canonical, origin) for s in members)
    try:
        return TagVocabulary(entries, version)
    except VocabularyError as exc:
        raise VocabularyError(f"{path}: {exc}") from None


def map_tag(surface: str, vocab: TagVocabulary, lexicons: LexiconBundle) -> int | None:
    """The tag id of surface itself when the vocabulary holds it, else that
    of its normalized form (lowercased, each word lemmatized); None when
    neither is there. A parsed surface is a lemma already but need not be a
    fixed point of lemmatize ("roses" parses to "rose", which lemmatizes to
    "rise"), so it is looked up as it is first."""
    tag_id = vocab.surface_to_id.get(surface)
    if tag_id is not None:
        return tag_id
    normalized = " ".join(lemmatize(word, lexicons) for word in surface.lower().split())
    return vocab.surface_to_id.get(normalized)


def load_surface_list(path: str | Path) -> list[str]:
    """One surface per line, used for seed and exclude lists."""
    return [line.strip() for _, line in textfile.rows(textfile.lines(path, VocabularyError))]


def load_whitelist(path: str | Path) -> set[int]:
    """Tag ids, one per line: the engine's whitelist or eval's class filter."""
    out = set()
    for lineno, line in textfile.rows(textfile.lines(path, TagforgeError)):
        try:
            out.add(int(line))
        except ValueError:
            raise TagforgeError(f"{path}:{lineno}: bad tag_id {line.strip()!r}") from None
    return out


def load_synonyms(path: str | Path) -> SynonymLexicon:
    pairs: list[tuple[str, str]] = []
    for lineno, line in textfile.rows(textfile.lines(path, VocabularyError)):
        parts = line.split("\t")
        if len(parts) != 2:
            raise VocabularyError(f"{path}:{lineno}: expected 'a<TAB>b'")
        pairs.append((parts[0].strip(), parts[1].strip()))
    return SynonymLexicon(tuple(pairs))
