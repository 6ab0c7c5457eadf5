"""The tagging data engine: merge generated annotations into the parsed set,
then remove suspect tags by per-category region clustering and by
region-level prediction filtering.

Stages run in a fixed order: parse -> generate -> clean -> filter; a run may
read an annotations file in place of parse and leave later stages out.
Generation only adds, cleaning only removes, and every addition or removal
lands in the audit log, so replaying the audit over the parsed baseline
reproduces the final annotation set exactly. Per-category randomness is
derived from (seed, tag_id), making results independent of category
processing order.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import jsonl, textfile
from .caption_parser import LexiconBundle, RejectSummary, load_lexicons, parse_corpus_file
from .clustering import distinct_rows, kmeanspp_init, lloyd
from .config import DEFAULT_MARGIN, DEFAULT_MAX_ITER, DEFAULT_MIN_REGIONS, DEFAULT_TOL, EngineConfig
from .embedding_store import EmbeddingTable, load_embeddings, normalize
from .errors import TagforgeError
from .label_system import TagVocabulary, load_vocabulary, load_whitelist, map_tag
from .pool import run_tasks
from .rng import derive_seed
from .similarity_tagger import (
    LabelQueryMatrix,
    ThresholdProfile,
    load_label_queries,
    load_threshold_profile,
)

PROV_PARSED = "parsed"
PROV_GENERATED = "generated"
PROV_SEED = "seed"

REASON_OUTLIER = "outlier"
REASON_NO_PREDICTION = "no_prediction"
REASON_CONTRARY = "contrary"

STAGE_PARSE = "parse"
STAGE_GENERATE = "generate"
STAGE_CLEAN = "clean"
STAGE_FILTER = "filter"

# ceil(fraction * n) computed on the real product; the epsilon absorbs float
# representation error in fraction * n (e.g. 0.1 * 300 -> 30.000000000000004)
_CEIL_EPS = 1e-9


class EngineError(TagforgeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        self.message = message
        super().__init__(f"engine stage {stage!r} failed: {message}")


@contextmanager
def _stage(name: str):
    """Raises an error inside, other than an EngineError, as EngineError(name, its message)."""
    try:
        yield
    except EngineError:
        raise
    except Exception as exc:
        raise EngineError(name, str(exc)) from exc


# an Annotations' provenance codes index its provenances, which start with the
# JSON texts of these three
PROVENANCES = tuple(f'"{p}"' for p in (PROV_PARSED, PROV_GENERATED, PROV_SEED))
_PARSED, _GENERATED, _SEED = range(3)

# the engine's audit events, (action, reason, stage); an event code indexes them
EVENTS = (
    ("added", PROV_GENERATED, STAGE_GENERATE),
    ("removed", REASON_OUTLIER, STAGE_CLEAN),
    ("removed", REASON_NO_PREDICTION, STAGE_FILTER),
    ("removed", REASON_CONTRARY, STAGE_FILTER),
)
_ADDED, _OUTLIER, _NO_PREDICTION, _CONTRARY = range(4)
_NO_CODES = np.empty(0, np.uint8)


@dataclass(eq=False)
class Pairs:
    """A set of (image_id, tag_id) pairs as sorted, distinct int64 keys over two
    sorted, distinct tables: key = image ordinal in image_ids * len(tag_ids) +
    tag ordinal in tag_ids, so keys run in (image_id, tag_id) order. Two are
    equal when they hold the same pairs, over whichever tables."""

    image_ids: list[str]
    tag_ids: np.ndarray
    keys: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """The image ordinal and the tag_id of each key."""
        image, tag = np.divmod(self.keys, len(self.tag_ids))
        return image, self.tag_ids[tag]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pairs):
            return NotImplemented
        (image, tag), (other_image, other_tag) = self.split(), other.split()
        return np.array_equal(tag, other_tag) and np.array_equal(
            np.array(self.image_ids, object)[image], np.array(other.image_ids, object)[other_image]
        )


@dataclass(eq=False)
class Annotations(Pairs):
    """Kept pairs with their provenance: provenance[i] indexes the JSON text of
    pair i's provenance in provenances, which start with PROVENANCES. A removal
    drops the pair, and the audit alone records why."""

    provenance: np.ndarray
    provenances: Sequence[str]


@dataclass(eq=False)
class Audit(Pairs):
    """Audit events in event order: keys as in Pairs, neither sorted nor
    distinct, and event[i] indexing event i's (action, reason, stage) in kinds."""

    event: np.ndarray
    kinds: Sequence[tuple[str, str, str]] = EVENTS


# the parsed set before parse
_NO_ANNOTATIONS = Annotations(
    [], np.empty(0, np.int64), np.empty(0, np.int64), _NO_CODES, PROVENANCES
)


def _keys(image_ids: list[str], tag_ids: np.ndarray, ids: Sequence[str], image, tag) -> np.ndarray:
    """The keys over image_ids and tag_ids (sorted, distinct) of the pairs
    (ids[image[i]], tag[i]), -1 where a table lacks the id. Ids map to
    ordinals through one dict."""
    index = {image_id: i for i, image_id in enumerate(image_ids)}
    ordinal = np.fromiter((index.get(image_id, -1) for image_id in ids), np.int64, len(ids))[image]
    found = (ordinal >= 0) & np.isin(tag, tag_ids)
    return np.where(found, ordinal * len(tag_ids) + np.searchsorted(tag_ids, tag), -1)


def _group_keys(image_ids: list[str], tag_ids: np.ndarray, groups: Sequence) -> np.ndarray:
    """The keys of the pairs of groups of (image_id, tag_ids), in order."""
    counts = np.fromiter((len(tags) for _, tags in groups), np.int64, len(groups))
    tags = np.fromiter(chain.from_iterable(tags for _, tags in groups), np.int64, counts.sum())
    image = np.repeat(np.arange(len(groups)), counts)
    return _keys(image_ids, tag_ids, [image_id for image_id, _ in groups], image, tags)


def _rekey(pairs: Pairs, image_ids: list[str], tag_ids: np.ndarray) -> Pairs:
    """pairs over tables holding every id of its own."""
    keys = _keys(image_ids, tag_ids, pairs.image_ids, *pairs.split())
    return replace(pairs, image_ids=image_ids, tag_ids=tag_ids, keys=keys)


def _ordinals(ids: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ids, and each id's ordinal among them, from one
    sort of the positions by id: faster than np.unique on an object array."""
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), np.int64)
    ranked = np.array(ids, object)[order]
    first = np.ones(len(ids), bool)
    first[1:] = ranked[1:] != ranked[:-1]
    ordinal = np.empty(len(ids), np.int64)
    ordinal[order] = np.cumsum(first) - 1
    return ranked[first].tolist(), ordinal


@dataclass(eq=False)
class Regions:
    """The (image_id, region_id, tag_id, embedding_key) records of a regions
    file as columns, entry i from record i: its image_id's ordinal in
    image_ids (sorted, distinct), its region_id's among the sorted distinct
    region ids, its tag_id and its key. resolve adds rows, dropping found keys."""

    image_ids: list[str]
    image: np.ndarray
    region: np.ndarray
    tag_id: np.ndarray
    keys: Sequence[str] | Mapping[int, str]
    row: np.ndarray | None = None

    @classmethod
    def of(cls, records: Iterable[tuple[str, str, int, str]]) -> Regions:
        # the columns grow as records arrive, so no record outlives its line
        images, region_ids, tag_ids, keys = [], [], [], []
        for image_id, region_id, tag_id, key in records:
            images.append(image_id)
            region_ids.append(region_id)
            tag_ids.append(tag_id)
            keys.append(key)
        return cls(*_ordinals(images), _ordinals(region_ids)[1], np.array(tag_ids, np.int64), keys)

    def __len__(self) -> int:
        return len(self.tag_id)

    def resolve(self, table: EmbeddingTable) -> Regions:
        """Each region's row in table, -1 if missing, keeping only those keys."""
        row = table.row_indices(self.keys)
        missing = np.flatnonzero(row < 0).tolist()
        return replace(self, keys={i: self.keys[i] for i in missing}, row=row)

    def categories(self) -> dict[int, np.ndarray]:
        """Each tag_id's region indices in (image_id, region_id) order, ties in file order."""
        order = np.lexsort((self.region, self.image, self.tag_id))
        tag_ids, starts = np.unique(self.tag_id[order], return_index=True)
        return dict(zip(tag_ids.tolist(), np.split(order, starts[1:])))


@dataclass
class StageStats:
    stage: str
    images: int
    tags: int
    added: int = 0
    removed: dict[str, int] = field(default_factory=dict)

    @property
    def removed_total(self) -> int:
        return sum(self.removed.values())


@dataclass
class EngineStats:
    rows: list[StageStats] = field(default_factory=list)

    def validate_conservation(self) -> None:
        """tags_out == tags_in + additions - removals, exactly, per stage."""
        previous = 0
        for row in self.rows:
            expected = previous + row.added - row.removed_total
            if row.tags != expected:
                raise EngineError(
                    row.stage,
                    f"conservation violated: {previous} + {row.added} - "
                    f"{row.removed_total} != {row.tags}",
                )
            previous = row.tags


def _stage_row(stage: str, pairs: Pairs, events: np.ndarray = _NO_CODES, added: int = 0):
    """stage's stats row: the pairs it kept, and its additions and removals by event."""
    counts = np.bincount(events, minlength=len(EVENTS)).tolist()
    return StageStats(
        stage=stage,
        images=int(np.count_nonzero(np.diff(pairs.split()[0], prepend=-1))),
        tags=len(pairs),
        added=added + counts[_ADDED],
        removed={EVENTS[e][1]: n for e, n in enumerate(counts) if e != _ADDED and n},
    )


def kept_pairs(annotations: Annotations) -> Pairs:
    return Pairs(annotations.image_ids, annotations.tag_ids, annotations.keys)


# -- generation ---------------------------------------------------------------


def generate_merge(
    parsed: Annotations,
    generated_tag_records: Iterable[tuple[str, Sequence[int]]],
    generated_caption_tags: Mapping[str, Sequence[int]],
    valid_tag_ids: set[int],
) -> tuple[Annotations, np.ndarray, int]:
    """Union generated tags into the parsed set, whose tables hold every
    generated image_id and every valid tag_id: the merged set, the keys it
    adds (sorted), and the count of generated-tag records rejected whole for
    naming an unknown tag_id.

    Tags already present keep their provenance; new ones are marked
    generated. Never removes anything.
    """
    records = list(generated_tag_records)
    groups = [r for r in records if all(tag_id in valid_tag_ids for tag_id in r[1])]
    merged, added = _merge(parsed, groups + list(generated_caption_tags.items()), _GENERATED)
    return merged, added, len(records) - len(groups)


def _merge(annotations: Annotations, groups: Sequence, code: int) -> tuple[Annotations, np.ndarray]:
    """annotations and the pairs of groups of (image_id, tag_ids) that it
    lacks, marked with the provenance code, as one sorted merge; and the keys
    of the pairs added."""
    keys = _group_keys(annotations.image_ids, annotations.tag_ids, groups)
    added = np.setdiff1d(keys, annotations.keys)
    at = np.searchsorted(annotations.keys, added)
    keys = np.insert(annotations.keys, at, added)
    merged = replace(annotations, keys=keys, provenance=np.insert(annotations.provenance, at, code))
    return merged, added


# -- cleaning -----------------------------------------------------------------


def cluster_count(n_regions: int) -> int:
    """k heuristic: clamp(round(sqrt(n/2)), 1, 8)."""
    return max(1, min(8, int(round(math.sqrt(n_regions / 2)))))


@dataclass
class CategoryCleanResult:
    tag_id: int
    region_count: int
    k: int
    skipped: bool
    outliers: np.ndarray  # positions in the category's rows
    removed_images: np.ndarray  # the removed pairs' image ordinals, from the category's


OUTLIER_SCOPE_CATEGORY = "category"
OUTLIER_SCOPE_CLUSTER = "cluster"


def _ceil_fraction(fraction: float, n: int) -> int:
    return math.ceil(fraction * n - _CEIL_EPS) if fraction > 0 and n > 0 else 0


def clean_category(
    tag_id: int,
    rows: np.ndarray,
    image: np.ndarray,
    matrix: np.ndarray,
    fraction: float,
    seed: int,
    min_regions: int = DEFAULT_MIN_REGIONS,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    outlier_scope: str = OUTLIER_SCOPE_CATEGORY,
) -> CategoryCleanResult:
    """Cluster one category's regions (rows of matrix, with their image
    ordinals, in (image_id, region_id) order) and mark the farthest fraction
    as outliers.

    With the default "category" scope, exactly ceil(fraction * n) regions
    are marked (distance to assigned centroid descending, ties by
    (image_id, region_id) ascending). The "cluster" scope instead marks
    ceil(fraction * cluster size) within each cluster. An (image, tag) pair
    is removed only when every region supporting it is an outlier.
    Categories under min_regions are skipped.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    if outlier_scope not in (OUTLIER_SCOPE_CATEGORY, OUTLIER_SCOPE_CLUSTER):
        raise ValueError(f"unknown outlier scope {outlier_scope!r}")
    n = len(rows)
    if n < min_regions:
        return CategoryCleanResult(tag_id, n, 0, True, rows[:0], image[:0])
    if np.any(rows < 0):  # matrix[-1] would cluster the last row in its place
        raise ValueError(f"category {tag_id}: negative table row")
    points = matrix[rows]

    k = distinct_rows(points, stop_at=cluster_count(n))
    category_seed = derive_seed(seed, tag_id)
    result = lloyd(points, kmeanspp_init(points, k, category_seed), max_iter=max_iter, tol=tol)

    # rows are in (image_id, region_id) order, so a stable sort by distance
    # descending breaks ties by (image_id, region_id) ascending
    ranked = np.argsort(-result.distances, kind="stable")
    # the category scope is the cluster rule over one group of every region
    group = result.assignment if outlier_scope == OUTLIER_SCOPE_CLUSTER else np.zeros(n, np.intp)
    ranked_group = group[ranked]
    outlier = np.zeros(n, dtype=bool)
    for g in range(k):
        in_group = ranked[ranked_group == g]
        outlier[in_group[: _ceil_fraction(fraction, len(in_group))]] = True

    # rows are grouped by image; a pair goes when all its regions are outliers
    starts = np.flatnonzero(np.diff(image, prepend=-1))
    removed = image[starts[np.logical_and.reduceat(outlier, starts)]]
    return CategoryCleanResult(tag_id, n, k, False, np.flatnonzero(outlier), removed)


def _clean_one(shared: tuple, task: tuple[int, np.ndarray, np.ndarray]) -> CategoryCleanResult:
    matrix, params = shared
    return clean_category(*task, matrix, **params)


def start_clean(
    regions: Regions,
    region_embeddings: EmbeddingTable,
    whitelist: set[int] | None,
    workers: int = 1,
    min_regions: int = DEFAULT_MIN_REGIONS,
    **params,
) -> Iterator[CategoryCleanResult]:
    """Start cleaning every category that has regions (only whitelisted ones
    when a whitelist is given) with clean_category's keyword params, and
    return pool.run_tasks' iterator of their results.

    Before any task starts, the largest category of at least min_regions
    regions holding a key the table lacks is refused (a smaller one is
    skipped, and the filter reports it). The categories go to pool.run_tasks
    largest first as (tag_id, rows, image ordinals) tasks, with the matrix
    shared. At more than one worker the helpers start cleaning now;
    finish_clean joins them.
    """
    tasks = [(t, m) for t, m in regions.categories().items() if whitelist is None or t in whitelist]
    tasks.sort(key=lambda task: (-len(task[1]), task[0]))
    for tag_id, members in tasks:
        missing = [regions.keys[i] for i in members[regions.row[members] < 0].tolist()]
        if missing and len(members) >= min_regions:
            more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
            message = f"category {tag_id}: unresolvable embedding keys: {missing[:5]}{more}"
            raise EngineError(STAGE_CLEAN, message)
    tasks = [(t, regions.row[m], regions.image[m]) for t, m in tasks]
    shared = (region_embeddings.matrix, {**params, "min_regions": min_regions})
    return run_tasks(_clean_one, tasks, shared, workers)


def finish_clean(results: Iterable[CategoryCleanResult]) -> tuple[np.ndarray, np.ndarray]:
    """Run the clean tasks left, wait for the rest and return the removed
    pairs, as image ordinals in the regions' image_ids and tag_ids, in the
    order the results arrive; apply_removals sorts them, so the audit is the
    same at every worker count."""
    results = list(results)
    image = np.concatenate([np.empty(0, np.int64)] + [r.removed_images for r in results])
    counts = np.array([len(r.removed_images) for r in results], np.int64)
    return image, np.repeat(np.array([r.tag_id for r in results], np.int64), counts)


# -- prediction filter ---------------------------------------------------------


@dataclass(eq=False)
class FilterResult:
    removals: np.ndarray  # the removed pairs' keys, sorted
    events: np.ndarray  # each removal's event code: no_prediction or contrary
    skipped_pairs: list[tuple[str, int, str]]
    images_without_whole_embedding: int = 0


# regions scored per matmul call; bounds the gathered copies of vectors
_FILTER_CHUNK_ROWS = 8192


def _row_dots(a: np.ndarray, a_rows, b: np.ndarray, b_rows) -> np.ndarray:
    """a[a_rows[i]] @ b[b_rows[i]] for every i. Each is one vector-vector
    matmul, bit-identical to float(a[a_rows[i]] @ b[b_rows[i]]); a row-wise
    einsum sums in another order and is not."""
    out = np.empty(len(a_rows))
    for start in range(0, len(a_rows), _FILTER_CHUNK_ROWS):
        stop = start + _FILTER_CHUNK_ROWS
        x, y = a[a_rows[start:stop]], b[b_rows[start:stop]]
        out[start:stop] = np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]
    return out


def prediction_filter(
    store: Annotations,
    regions: Regions,
    region_embeddings: EmbeddingTable,
    whole_image_embeddings: EmbeddingTable | None,
    queries: LabelQueryMatrix,
    profile: ThresholdProfile,
    margin: float = DEFAULT_MARGIN,
    whitelist: set[int] | None = None,
) -> FilterResult:
    """Remove pairs whose regions never reach the tag's threshold.

    A pair with at least one region is removed for no_prediction when its
    best region score is below the effective threshold; it is removed for
    contrary instead when the whole image scores at or above threshold while
    every region stays below threshold - margin. Pairs without regions are never
    touched; pairs with unresolvable embeddings are skipped and reported.
    """
    # the regions of kept pairs by pair, in key order, and in file order within one
    key = _keys(store.image_ids, store.tag_ids, regions.image_ids, regions.image, regions.tag_id)
    kept = np.isin(key, store.keys)
    if whitelist is not None:
        kept &= np.isin(regions.tag_id, list(whitelist))
    members = np.flatnonzero(kept)
    members = members[np.argsort(key[members], kind="stable")]
    starts = np.flatnonzero(np.diff(key[members], prepend=-1))
    counts = np.diff(starts, append=len(members))
    pairs = Pairs(store.image_ids, store.tag_ids, key[members[starts]])
    image, tag_ids = pairs.split()
    row_of = {tag_id: i for i, tag_id in enumerate(queries.tag_ids)}
    query_rows = np.array([row_of.get(tag_id, -1) for tag_id in tag_ids.tolist()], np.int64)
    rows = regions.row[members]
    has_missing = np.minimum.reduceat(rows, starts) < 0 if len(rows) else kept[:0]

    skipped = []
    for i in np.flatnonzero((query_rows < 0) | has_missing).tolist():
        reason = "tag not in label queries"
        if query_rows[i] >= 0:
            first = starts[i] + int(np.argmax(rows[starts[i] : starts[i] + counts[i]] < 0))
            reason = f"missing region embedding {regions.keys[int(members[first])]!r}"
        skipped.append((store.image_ids[image[i]], int(tag_ids[i]), reason))
    scored = (query_rows >= 0) & ~has_missing
    if not scored.any():
        return FilterResult(pairs.keys[:0], _NO_CODES, skipped)

    region_rows = rows[np.repeat(scored, counts)]
    query_rows, image, tag_ids, counts = (a[scored] for a in (query_rows, image, tag_ids, counts))
    scores = _row_dots(
        region_embeddings.matrix, region_rows, queries.matrix, np.repeat(query_rows, counts)
    )
    best = np.maximum.reduceat(scores, np.cumsum(counts) - counts)
    thresholds = profile.thresholds(tag_ids.tolist())
    removed = np.flatnonzero(best < thresholds)
    events = np.full(len(removed), _NO_PREDICTION, np.uint8)
    images_missing_whole: set[int] = set()
    for j, i in enumerate(removed.tolist()):
        image_id = store.image_ids[image[i]]
        if whole_image_embeddings is not None and image_id in whole_image_embeddings:
            query = queries.matrix[query_rows[i]]
            whole = float(whole_image_embeddings.vector(image_id) @ query)
            # every region is below threshold - margin when the best one is
            if whole >= thresholds[i] and best[i] < thresholds[i] - margin:
                events[j] = _CONTRARY
        elif whole_image_embeddings is not None:
            images_missing_whole.add(image[i])
    return FilterResult(pairs.keys[scored][removed], events, skipped, len(images_missing_whole))


def apply_removals(
    annotations: Annotations, keys: np.ndarray, events: np.ndarray
) -> tuple[Annotations, np.ndarray, np.ndarray]:
    """Remove the pairs of keys from annotations, each for its event code in
    events, as one sorted set difference: the pairs kept, and the keys removed
    (sorted) with their events. A key it does not hold (-1, never kept, or
    removed already) is skipped; a key given twice goes for its first event."""
    keys, first = np.unique(keys, return_index=True)
    held = np.isin(keys, annotations.keys, assume_unique=True)
    keys, events = keys[held], events[first[held]]
    keep = ~np.isin(annotations.keys, keys, assume_unique=True)
    provenance = annotations.provenance[keep]
    return replace(annotations, keys=annotations.keys[keep], provenance=provenance), keys, events


# -- full pipeline --------------------------------------------------------------


@dataclass
class EngineResult:
    parsed: Annotations
    final: Annotations  # over parsed's tables
    stats: EngineStats
    audit: Audit  # over parsed's tables
    unmapped_surfaces: int
    generated_unmapped: int  # generated captions' tags that map to no tag id
    rejected_generated: int
    filter_skipped: list[tuple[str, int, str]]
    images_without_whole_embedding: int  # images the filter could not check for contrary
    parse_rejects: RejectSummary  # malformed caption records skipped by parse
    generated_rejects: RejectSummary  # malformed generated-caption records skipped


def _tag_id_record(obj) -> tuple[str, list[int]]:
    return jsonl.image_id(obj), list(map(jsonl.tag_id, jsonl.as_list(obj["tag_ids"], "tag_ids")))


def load_tag_id_records(path: str | Path) -> list[tuple[str, list[int]]]:
    """JSONL of {"image_id": ..., "tag_ids": [...]}."""
    return list(jsonl.read(path, "tag-id", _tag_id_record))


def _region_record(obj) -> tuple[str, str, int, str]:
    image_id, region_id = jsonl.image_id(obj), jsonl.string(obj, "region_id")
    tag_id, score = jsonl.tag_id(obj["tag_id"]), obj["score"]
    key = jsonl.string(obj, "embedding_key")
    if type(score) not in (int, float):
        raise TypeError("score must be a number")
    if not 0.0 <= float(score) <= 1.0:
        raise jsonl.RecordError("detector score outside [0, 1]")
    return image_id, region_id, tag_id, key


def load_regions(path: str | Path) -> Regions:
    return Regions.of(jsonl.read(path, "region", _region_record))


def _caption_tag_ids(
    path: str | Path, workers: int, vocab: TagVocabulary, lexicons: LexiconBundle
) -> tuple[dict[str, list[int]], int, RejectSummary]:
    """Parse the caption file at path with lexicons over workers processes
    and map each image's tags: the distinct tag ids of every image with one,
    the count of tags that map to none, and the malformed caption records."""
    corpus = parse_corpus_file(path, lexicons, workers=workers)
    image_tag_ids: dict[str, list[int]] = {}
    unmapped = 0
    for image_id, tags in corpus.image_tags.items():
        tag_ids: dict[int, None] = {}
        for surface, _ in tags:
            tag_id = map_tag(surface, vocab, lexicons)
            if tag_id is None:
                unmapped += 1
            else:
                tag_ids[tag_id] = None
        if tag_ids:
            image_tag_ids[image_id] = list(tag_ids)
    return image_tag_ids, unmapped, corpus.rejects


def run_engine(
    config: EngineConfig,
    annotations: str | Path | None = None,
    stages: Sequence[str] = (STAGE_GENERATE, STAGE_CLEAN, STAGE_FILTER),
    outputs: Mapping[str, str | Path] | None = None,
) -> EngineResult:
    """Parse config.captions, or read the annotations file in its place, run
    the given stages of generate -> clean -> filter, collect the accounting,
    check it and the audit, and write the outputs. Any stage error aborts
    with the stage name.

    outputs maps "parsed", "final", "audit" and "stats" to the paths to write
    them to, and a name mapped to None is not written; by default all four
    go into config.out_dir. A config path that no stage run reads may be
    None: captions when annotations is given, out_dir when outputs is,
    regions and region_embeddings when neither clean nor filter runs, and
    queries when filter does not.

    Every input but the caption files loads before parse, and a bad one
    fails the run at once, with the same message at every worker count: the
    regions, region embeddings, whitelist and a cleaned category's missing
    embedding key under stage clean (filter when clean does not run); the
    annotations and the vocabulary; the label queries, thresholds and image
    embeddings under stage filter; the seed annotations under stage parse,
    the generated tag-id files under stage generate. The clean tasks start
    once their inputs load, so at more than one worker the helper processes
    clean while this process parses and generates; then it joins the
    cleaning. Parse and generate split their caption files over workers
    processes as `parse` does, so a caption file that outlasts the cleaning
    does not leave the helpers' cores idle."""
    # each stage's stats row, and its audit keys and event codes, in stage order
    stats, log = EngineStats(), [(np.empty(0, np.int64), _NO_CODES)]

    def logged(stage: str, kept: Annotations, keys: np.ndarray, events: np.ndarray) -> Annotations:
        log.append((keys, events))
        stats.rows.append(_stage_row(stage, kept, events))
        return kept

    cleaning = None
    try:
        if STAGE_CLEAN in stages or STAGE_FILTER in stages:
            with _stage(STAGE_CLEAN if STAGE_CLEAN in stages else STAGE_FILTER):
                regions = load_regions(config.regions)
                table = normalize(load_embeddings(config.region_embeddings))
                regions = regions.resolve(table)
                whitelist = load_whitelist(config.whitelist) if config.whitelist else None
                if STAGE_CLEAN in stages:
                    cleaning = start_clean(
                        regions, table, whitelist, workers=config.workers, fraction=config.fraction,
                        seed=config.seed, min_regions=config.min_regions, tol=config.tol,
                        max_iter=config.max_iter, outlier_scope=config.outlier_scope,
                    )
        parsed = load_annotations(annotations) if annotations is not None else _NO_ANNOTATIONS
        vocab = load_vocabulary(config.vocab)
        valid = set(vocab.tag_ids())
        if STAGE_FILTER in stages:
            with _stage(STAGE_FILTER):
                queries = load_label_queries(config.queries, vocab)
                profile = load_threshold_profile(config.thresholds)
                profile.validate_against(queries.tag_ids)
                path = config.image_embeddings
                whole = normalize(load_embeddings(path)) if path else None
                for name, vectors in (("region", table), ("whole-image", whole)):
                    if vectors is not None and vectors.dim != queries.dim:
                        raise EngineError(
                            STAGE_FILTER,
                            f"{name} embeddings are {vectors.dim}-d, label queries {queries.dim}-d",
                        )
        unmapped, seeds, records = 0, [], []
        if annotations is None and config.seed_annotations is not None:
            with _stage(STAGE_PARSE):
                for image_id, tag_ids in load_tag_id_records(config.seed_annotations):
                    seeds.append((image_id, [tag_id for tag_id in tag_ids if tag_id in valid]))
                    unmapped += len(tag_ids) - len(seeds[-1][1])
        if STAGE_GENERATE in stages:
            with _stage(STAGE_GENERATE):
                records = [r for path in config.generated_tags for r in load_tag_id_records(path)]
        if annotations is None or STAGE_GENERATE in stages:
            lexicons = load_lexicons(config.lexicon_dir)
        # the parsed pairs as (groups of (image_id, tag_ids), provenance code)
        parse_rejects, sources = RejectSummary(), []
        if annotations is None:
            with _stage(STAGE_PARSE):
                tagged, count, parse_rejects = _caption_tag_ids(
                    config.captions, config.workers, vocab, lexicons
                )
            unmapped += count
            sources = [(list(tagged.items()), _PARSED)]
            if seeds:  # an empty merge still costs a pass over every pair
                sources.append((seeds, _SEED))
        caption_tags = {}
        generated_unmapped, rejected, generated_rejects = 0, 0, RejectSummary()
        if STAGE_GENERATE in stages:
            with _stage(STAGE_GENERATE):
                for path in config.generated_captions:
                    tag_ids, count, rejects = _caption_tag_ids(
                        path, config.workers, vocab, lexicons
                    )
                    generated_unmapped += count
                    generated_rejects.merge(rejects)
                    for image_id, ids in tag_ids.items():
                        caption_tags.setdefault(image_id, []).extend(ids)
        # the run's one image table and one tag table
        groups = [records, caption_tags.items(), *(groups for groups, _ in sources)]
        image_ids = sorted({i for group in groups for i, _ in group}.union(parsed.image_ids))
        tag_ids = np.union1d(np.array(vocab.tag_ids(), np.int64), parsed.tag_ids)
        parsed = _rekey(parsed, image_ids, tag_ids)
        for groups, provenance in sources:  # a pair both parsed and seeded stays parsed
            parsed = _merge(parsed, groups, provenance)[0]
        stats.rows.append(_stage_row(STAGE_PARSE, parsed, added=len(parsed)))
        merged = parsed
        if STAGE_GENERATE in stages:
            with _stage(STAGE_GENERATE):
                merged, added, rejected = generate_merge(parsed, records, caption_tags, valid)
                events = np.full(len(added), _ADDED, np.uint8)
                merged = logged(STAGE_GENERATE, merged, added, events)
        if STAGE_CLEAN in stages:
            with _stage(STAGE_CLEAN):
                image, tag = finish_clean(cleaning)
                keys = _keys(merged.image_ids, merged.tag_ids, regions.image_ids, image, tag)
                outliers = np.full(len(keys), _OUTLIER, np.uint8)
                merged = logged(STAGE_CLEAN, *apply_removals(merged, keys, outliers))
    finally:
        if cleaning is not None:
            cleaning.close()  # stops the helpers when a stage failed
    filter_skipped: list[tuple[str, int, str]] = []
    without_whole = 0
    if STAGE_FILTER in stages:
        with _stage(STAGE_FILTER):
            outcome = prediction_filter(
                merged, regions, table, whole, queries, profile, margin=config.margin,
                whitelist=whitelist,
            )
            merged = logged(STAGE_FILTER, *apply_removals(merged, outcome.removals, outcome.events))
            filter_skipped = outcome.skipped_pairs
            without_whole = outcome.images_without_whole_embedding
    audit = Audit(image_ids, tag_ids, *(np.concatenate(column) for column in zip(*log)))

    stats.validate_conservation()
    if replay_audit(parsed, audit) != kept_pairs(merged):
        raise EngineError(
            "audit", "replaying the audit over the parsed annotations does not give the final ones"
        )
    if outputs is None:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = {
            "parsed": out_dir / "parsed.jsonl", "final": out_dir / "final.jsonl",
            "audit": out_dir / "audit.jsonl", "stats": out_dir / "stats.tsv",
        }
    writers = {
        "parsed": (write_annotations, parsed), "final": (write_annotations, merged),
        "audit": (write_audit, audit), "stats": (write_stats, stats),
    }
    for name, path in outputs.items():
        if path is not None:
            write, value = writers[name]
            write(value, path)
    return EngineResult(
        parsed=parsed,
        final=merged,
        stats=stats,
        audit=audit,
        unmapped_surfaces=unmapped,
        generated_unmapped=generated_unmapped,
        rejected_generated=rejected,
        filter_skipped=filter_skipped,
        images_without_whole_embedding=without_whole,
        parse_rejects=parse_rejects,
        generated_rejects=generated_rejects,
    )


# -- file formats ---------------------------------------------------------------


def write_annotations(annotations: Annotations, path: str | Path) -> None:
    """Write kept annotations as JSONL; removals live in the audit log. Each
    image with kept tags is one line, as json.dumps({"image_id": ..., "tags":
    [{"tag_id": ..., "provenance": ...}, ...]}, ensure_ascii=False) writes it,
    from the image's run of keys; each distinct (tag, provenance) cell is
    rendered once."""
    dumps = jsonl.memo_dumps()
    n = len(annotations.provenances)
    image, tag = np.divmod(annotations.keys, len(annotations.tag_ids))
    cells, cell = np.unique(tag * n + annotations.provenance, return_inverse=True)
    texts = [
        f'{{"tag_id": {dumps(annotations.tag_ids[c // n].item())}, '
        f'"provenance": {annotations.provenances[c % n]}}}'
        for c in cells.tolist()
    ]
    cell = [texts[c] for c in cell.tolist()]
    starts = np.flatnonzero(np.diff(image, prepend=-1)).tolist()
    jsonl.write_lines(path, (
        f'{{"image_id": {dumps(annotations.image_ids[i])}, "tags": [{", ".join(cell[a:b])}]}}\n'
        for i, a, b in zip(image[starts].tolist(), starts, starts[1:] + [len(cell)])
    ))


def _load_pairs(path: str | Path, what: str, record) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The image table, tag table and keys, in file order, of the (image_id,
    tag_ids) that record makes of each record of the JSONL file at path."""
    groups = list(jsonl.read(path, what, record))
    image_ids = sorted({image_id for image_id, _ in groups})
    tag_ids = np.unique(np.fromiter(chain.from_iterable(tags for _, tags in groups), np.int64))
    return image_ids, tag_ids, _group_keys(image_ids, tag_ids, groups)


def load_annotations(path: str | Path) -> Annotations:
    """JSONL of {"image_id": ..., "tags": [{"tag_id": ..., "provenance": ...}]},
    over tables of its own ids. A record whose image_id is not a string, or
    whose tag_id is not an integer within int64, is malformed. A provenance
    may be any JSON value and is kept as its JSON text ("parsed" when
    absent); of a pair given twice, the first is kept."""
    dumps, codes, provenance = jsonl.memo_dumps(), {p: i for i, p in enumerate(PROVENANCES)}, []

    def record(obj) -> tuple[str, list[int]]:
        tags = [jsonl.tag_id(t["tag_id"]) for t in obj["tags"]]
        for t in obj["tags"]:
            provenance.append(codes.setdefault(dumps(t.get("provenance", PROV_PARSED)), len(codes)))
        return jsonl.image_id(obj), tags

    image_ids, tag_ids, keys = _load_pairs(path, "annotation", record)
    keys, first = np.unique(keys, return_index=True)
    provenance = np.array(provenance, np.min_scalar_type(len(codes)))[first]
    return Annotations(image_ids, tag_ids, keys, provenance, list(codes))


def write_audit(audit: Audit, path: str | Path) -> None:
    """One line per event, as json.dumps({"image_id": ..., "tag_id": ...,
    "action": ..., "reason": ..., "stage": ...}, ensure_ascii=False) writes it."""
    dumps = jsonl.memo_dumps()
    kinds = [
        f'"action": {dumps(action)}, "reason": {dumps(reason)}, "stage": {dumps(stage)}}}\n'
        for action, reason, stage in audit.kinds
    ]
    image, tag = audit.split()
    jsonl.write_lines(path, (
        f'{{"image_id": {dumps(audit.image_ids[i])}, "tag_id": {dumps(t)}, {kinds[e]}'
        for i, t, e in zip(image.tolist(), tag.tolist(), audit.event.tolist())
    ))


def load_audit(path: str | Path) -> Audit:
    """JSONL of {"image_id": ..., "tag_id": ..., "action": ..., "reason": ...,
    "stage": ...}, over tables of its own ids. A record is malformed unless its
    image_id, reason and stage are strings and its tag_id is an int64; an
    action other than added or removed is named."""
    kinds, event = {}, []

    def record(obj) -> tuple[str, list[int]]:
        action, reason, stage = obj["action"], obj["reason"], obj["stage"]
        if action not in ("added", "removed"):
            raise jsonl.RecordError(f"unknown audit action {action!r}")
        if not isinstance(reason, str) or not isinstance(stage, str):
            raise TypeError("reason and stage must be strings")
        event.append(kinds.setdefault((action, reason, stage), len(kinds)))
        return jsonl.image_id(obj), [jsonl.tag_id(obj["tag_id"])]

    pairs = _load_pairs(path, "audit", record)  # fills event and kinds
    return Audit(*pairs, np.array(event, np.min_scalar_type(len(kinds))), list(kinds))


def replay_audit(parsed: Pairs, audit: Audit) -> Pairs:
    """Apply audited additions and removals over the parsed baseline: a pair
    is kept when its last event adds it, or it has none and parsed holds it."""
    if parsed.image_ids is not audit.image_ids or parsed.tag_ids is not audit.tag_ids:
        image_ids = sorted(set(parsed.image_ids).union(audit.image_ids))
        tag_ids = np.union1d(parsed.tag_ids, audit.tag_ids)
        parsed, audit = _rekey(parsed, image_ids, tag_ids), _rekey(audit, image_ids, tag_ids)
    keys, last = np.unique(audit.keys[::-1], return_index=True)
    adds = np.array([action == "added" for action, _, _ in audit.kinds], bool)
    added = adds[audit.event[::-1][last]]
    kept = np.union1d(np.setdiff1d(parsed.keys, keys, assume_unique=True), keys[added])
    return Pairs(parsed.image_ids, parsed.tag_ids, kept)


STATS_HEADER = "#tagforge-engine-stats v1"
_STATS_REASONS = (REASON_OUTLIER, REASON_NO_PREDICTION, REASON_CONTRARY)
_STATS_COLUMNS = ("stage", "images", "tags", "added", *(f"removed_{r}" for r in _STATS_REASONS))


def write_stats(stats: EngineStats, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(STATS_HEADER + "\n")
        fh.write("\t".join(_STATS_COLUMNS) + "\n")
        for row in stats.rows:
            removed = (row.removed.get(reason, 0) for reason in _STATS_REASONS)
            fh.write("\t".join(map(str, (row.stage, row.images, row.tags, row.added, *removed))))
            fh.write("\n")


def load_stats(path: str | Path) -> EngineStats:
    numbered = textfile.lines(path, TagforgeError)
    header = [line for _, line in islice(numbered, 2)]
    if header[:1] != [STATS_HEADER]:
        raise TagforgeError(f"{path}: missing header {STATS_HEADER!r}")
    if header[1:] != ["\t".join(_STATS_COLUMNS)]:
        raise TagforgeError(f"{path}: missing column header")
    stats = EngineStats()
    for lineno, line in textfile.rows(numbered):
        stage, *fields = line.split("\t")
        if len(fields) != len(_STATS_COLUMNS) - 1:
            raise TagforgeError(f"{path}:{lineno}: expected {len(_STATS_COLUMNS)} columns")
        try:
            images, tags, added, *counts = map(int, fields)
        except ValueError:
            raise TagforgeError(f"{path}:{lineno}: bad integer field") from None
        removed = {reason: n for reason, n in zip(_STATS_REASONS, counts) if n}
        stats.rows.append(StageStats(stage, images, tags, added, removed))
    if not stats.rows:
        raise TagforgeError(f"{path}: no stage rows")
    return stats
