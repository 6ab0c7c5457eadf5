"""Unified tag vocabulary: top-k corpus tags plus seed lists, merged into
synonym groups that share a tag ID.

Groups are produced by union-find over declared synonym pairs, restricted to
the candidate set. Each group's canonical surface is its highest-frequency
member (ties broken lexicographically) and tag IDs are dense integers
assigned in canonical-surface lexicographic order. IDs are therefore
re-derived on every build and are not stable across vocabulary versions;
the version hash in the file header is there to warn consumers.

The vocabulary holds what its file holds: one TagGroup per tag id, with the
group's canonical, its sorted members, their summed corpus frequency and
their merged origin (corpus when every member came from the top-k only,
seed when every member came from the seed lists only, else both). Build,
save, version hash and load all read and write these rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import textfile
from .errors import TagforgeError

if TYPE_CHECKING:
    from .caption_parser import LexiconBundle

VOCAB_HEADER = "#tagforge-vocab v1"

ORIGIN_CORPUS = "corpus"
ORIGIN_SEED = "seed"
ORIGIN_BOTH = "both"


class VocabularyError(TagforgeError):
    pass


@dataclass(frozen=True)
class TagGroup:
    """One tag id's row: the canonical surface, the sorted members (the
    canonical among them), their summed corpus frequency and their merged
    origin."""

    canonical: str
    members: tuple[str, ...]
    frequency: int
    origin: str


@dataclass(frozen=True)
class SynonymLexicon:
    pairs: tuple[tuple[str, str], ...]


class TagVocabulary:
    """Immutable vocabulary: groups[tag_id] is that tag id's row."""

    def __init__(self, groups: Sequence[TagGroup], version: str):
        self.groups = tuple(groups)
        self.version = version
        self.canonicals = tuple(group.canonical for group in self.groups)
        self.surface_to_id: dict[str, int] = {}
        for tag_id, group in enumerate(self.groups):
            for surface in group.members:
                if surface in self.surface_to_id:
                    raise VocabularyError(f"duplicate surface {surface!r}")
                self.surface_to_id[surface] = tag_id

    def __len__(self) -> int:
        return len(self.surface_to_id)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def tag_ids(self) -> list[int]:
        return list(range(len(self.groups)))


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
    that remain. Seed surfaces absent from the corpus get frequency 0. A
    candidate holding '|' or a tab, which the vocabulary file cannot store,
    is refused.
    """
    if k < 0:
        raise VocabularyError("k must be >= 0")
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    top = {surface for surface, _ in ranked[:k]}
    seed_surfaces = {surface for seed_list in seeds for surface in seed_list}
    candidates = (top | seed_surfaces) - set(excludes)
    unstorable = sorted(s for s in candidates if "|" in s or "\t" in s)
    if unstorable:
        raise VocabularyError(f"surface {unstorable[0]!r} holds '|' or a tab")

    uf = _UnionFind(candidates)
    if synonyms is not None:
        for a, b in synonyms.pairs:
            if a != b and a in candidates and b in candidates:
                uf.union(a, b)
    members_of: dict[str, list[str]] = {}
    for surface in sorted(candidates):  # so each member list is sorted
        members_of.setdefault(uf.find(surface), []).append(surface)

    groups = []
    for members in members_of.values():
        # canonical = highest frequency, ties lexicographically smallest
        canonical = min(members, key=lambda s: (-freq.get(s, 0), s))
        in_corpus = not top.isdisjoint(members)
        if in_corpus and not seed_surfaces.isdisjoint(members):
            origin = ORIGIN_BOTH
        else:
            origin = ORIGIN_CORPUS if in_corpus else ORIGIN_SEED
        groups.append(
            TagGroup(canonical, tuple(members), sum(freq.get(s, 0) for s in members), origin)
        )
    groups.sort(key=lambda group: group.canonical)
    return TagVocabulary(groups, _version_of(groups))


def _rows(groups: Sequence[TagGroup]) -> list[str]:
    return [
        f"{tag_id}\t{g.canonical}\t{'|'.join(g.members)}\t{g.frequency}\t{g.origin}"
        for tag_id, g in enumerate(groups)
    ]


def _version_of(groups: Sequence[TagGroup]) -> str:
    payload = "\n".join(_rows(groups)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]


def save_vocabulary(vocab: TagVocabulary, path: str | Path) -> None:
    """Write the header lines, then one row per group in tag id order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(VOCAB_HEADER + "\n")
        fh.write(f"#version={vocab.version}\n")
        for row in _rows(vocab.groups):
            fh.write(row + "\n")


def load_vocabulary(path: str | Path) -> TagVocabulary:
    """Load a vocabulary file, one TagGroup per row. Row errors are named in
    line order, then a repeated tag id, ids that are not 0..n-1, a surface
    in two groups and a #version line that is not the hash of the rows."""
    numbered = textfile.lines(path, VocabularyError)
    header = [line for _, line in islice(numbered, 2)]
    if header[:1] != [VOCAB_HEADER]:
        raise VocabularyError(f"{path}: missing header {VOCAB_HEADER!r}")
    prefix = "#version="
    version = header[1][len(prefix):] if header[1:] and header[1].startswith(prefix) else ""
    if not version:
        raise VocabularyError(f"{path}: missing #version line")
    rows: list[tuple[int, TagGroup]] = []
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
        rows.append((tag_id, TagGroup(canonical, tuple(sorted(members)), frequency, origin)))
    rows.sort(key=lambda row: row[0])
    ids = [tag_id for tag_id, _ in rows]
    try:
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise VocabularyError(f"tag_id {a} has two canonicals")
        if ids != list(range(len(ids))):
            raise VocabularyError("tag_ids are not dense integers starting at 0")
        vocab = TagVocabulary([group for _, group in rows], version)
        rows_version = _version_of(vocab.groups)
        if version != rows_version:
            raise VocabularyError(f"#version={version} does not match its rows ({rows_version})")
        return vocab
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
    # loaded with the lexicons by now; commands that only read a vocabulary
    # do not load it
    from . import caption_parser

    normalized = " ".join(
        caption_parser.lemmatize(word, lexicons) for word in surface.lower().split()
    )
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
