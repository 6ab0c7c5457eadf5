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
from itertools import islice
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

    def __reduce__(self):
        # lets an error raised in a clean worker process reach the parent
        return type(self), (self.stage, self.message)


@contextmanager
def _stage(name: str):
    """Raises an error inside, other than an EngineError, as EngineError(name, its message)."""
    try:
        yield
    except EngineError:
        raise
    except Exception as exc:
        raise EngineError(name, str(exc)) from exc


# image_id -> {tag_id -> provenance}, kept tags only: a removal deletes the
# pair, and the audit log alone records why
AnnotationStore = dict[str, dict[int, str]]


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
        image_ids, image = np.unique(np.array(images, object), return_inverse=True)
        region = np.unique(np.array(region_ids, object), return_inverse=True)[1]
        return cls(image_ids.tolist(), image, region, np.array(tag_ids, np.int64), keys)

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
class AuditEvent:
    image_id: str
    tag_id: int
    action: str  # "added" | "removed"
    reason: str
    stage: str


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


def count_kept(store: AnnotationStore) -> int:
    return sum(map(len, store.values()))


def images_with_kept(store: AnnotationStore) -> int:
    return sum(1 for tags in store.values() if tags)


def kept_pairs(store: AnnotationStore) -> set[tuple[str, int]]:
    return {(image_id, tag_id) for image_id, tags in store.items() for tag_id in tags}


def _stage_row(stage: str, store: AnnotationStore, added: int = 0, removed: dict | None = None):
    return StageStats(
        stage=stage,
        images=images_with_kept(store),
        tags=count_kept(store),
        added=added,
        removed=dict(removed or {}),
    )


# -- generation ---------------------------------------------------------------


def generate_merge(
    parsed: AnnotationStore,
    generated_tag_records: Iterable[tuple[str, Sequence[int]]],
    generated_caption_tags: Mapping[str, Iterable[int]],
    valid_tag_ids: set[int],
) -> tuple[AnnotationStore, list[AuditEvent], int]:
    """Union generated tags into the parsed set.

    Tags already present keep their provenance; new ones are marked
    generated. A generated-tag record naming an unknown tag_id is rejected
    whole and counted. Never removes anything.
    """
    merged: AnnotationStore = {image_id: dict(tags) for image_id, tags in parsed.items()}
    additions: list[tuple[str, int]] = []
    rejected = 0

    def add(image_id: str, tag_id: int) -> None:
        tags = merged.setdefault(image_id, {})
        if tag_id not in tags:
            tags[tag_id] = PROV_GENERATED
            additions.append((image_id, tag_id))

    for image_id, tag_ids in generated_tag_records:
        if any(tag_id not in valid_tag_ids for tag_id in tag_ids):
            rejected += 1
            continue
        for tag_id in tag_ids:
            add(image_id, tag_id)

    for image_id, tag_ids in generated_caption_tags.items():
        for tag_id in tag_ids:
            add(image_id, tag_id)

    audit = [
        AuditEvent(image_id, tag_id, "added", PROV_GENERATED, STAGE_GENERATE)
        for image_id, tag_id in sorted(additions)
    ]
    return merged, audit, rejected


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
    outliers: np.ndarray  # region indices, in (image_id, region_id) order
    removed_pairs: list[tuple[str, int]] = field(default_factory=list)


OUTLIER_SCOPE_CATEGORY = "category"
OUTLIER_SCOPE_CLUSTER = "cluster"


def _ceil_fraction(fraction: float, n: int) -> int:
    return math.ceil(fraction * n - _CEIL_EPS) if fraction > 0 and n > 0 else 0


def clean_category(
    tag_id: int,
    members: np.ndarray,
    regions: Regions,
    region_embeddings: EmbeddingTable,
    fraction: float,
    seed: int,
    min_regions: int = DEFAULT_MIN_REGIONS,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    outlier_scope: str = OUTLIER_SCOPE_CATEGORY,
) -> CategoryCleanResult:
    """Cluster one category's resolved regions, members as categories gives
    them, and mark the farthest fraction as outliers.

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
    n = len(members)
    if n < min_regions:
        return CategoryCleanResult(tag_id, n, 0, True, members[:0])

    rows = regions.row[members]
    missing = [regions.keys[i] for i in members[rows < 0].tolist()]
    if missing:
        raise EngineError(
            STAGE_CLEAN,
            f"category {tag_id}: unresolvable embedding keys: {missing[:5]}"
            + ("" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"),
        )
    points = region_embeddings.matrix[rows]

    k = distinct_rows(points, stop_at=cluster_count(n))
    category_seed = derive_seed(seed, tag_id)
    result = lloyd(points, kmeanspp_init(points, k, category_seed), max_iter=max_iter, tol=tol)

    # members are in (image_id, region_id) order, so a stable sort by distance
    # descending breaks ties by (image_id, region_id) ascending
    ranked = np.argsort(-result.distances, kind="stable")
    outlier = np.zeros(n, dtype=bool)
    if outlier_scope == OUTLIER_SCOPE_CATEGORY:
        outlier[ranked[: _ceil_fraction(fraction, n)]] = True
    else:
        ranked_cluster = result.assignment[ranked]
        for cluster in range(k):
            in_cluster = ranked[ranked_cluster == cluster]
            outlier[in_cluster[: _ceil_fraction(fraction, len(in_cluster))]] = True

    # members are grouped by image; a pair goes when all its regions are outliers
    image = regions.image[members]
    starts = np.flatnonzero(np.diff(image, prepend=-1))
    removed = image[starts[np.logical_and.reduceat(outlier, starts)]].tolist()
    removed_pairs = [(regions.image_ids[i], tag_id) for i in removed]
    return CategoryCleanResult(tag_id, n, k, False, members[outlier], removed_pairs)


def _clean_one(shared: tuple, task: tuple[int, np.ndarray]) -> CategoryCleanResult:
    regions, region_embeddings, params = shared
    return clean_category(*task, regions, region_embeddings, **params)


def start_clean(
    regions: Regions,
    region_embeddings: EmbeddingTable,
    whitelist: set[int] | None,
    workers: int = 1,
    **params,
) -> Iterator[CategoryCleanResult]:
    """Start cleaning every category that has regions (only whitelisted ones
    when a whitelist is given) with clean_category's keyword params, and
    return pool.run_tasks' iterator of their results.

    The categories go to pool.run_tasks largest first, one task each, with
    the regions and the embedding table shared. At more than one worker the
    helper processes start cleaning now; finish_clean joins them.
    """
    tasks = [(t, m) for t, m in regions.categories().items() if whitelist is None or t in whitelist]
    tasks.sort(key=lambda task: (-len(task[1]), task[0]))
    return run_tasks(_clean_one, tasks, (regions, region_embeddings, params), workers)


def finish_clean(results: Iterable[CategoryCleanResult]) -> list[tuple[str, int, str]]:
    """Run the clean tasks left, wait for the rest and return the outlier
    removals in the order the results arrive; apply_removals sorts them, so
    the audit is the same at every worker count. When several categories
    fail, the first failure met is raised: at one worker, the largest
    failing category's."""
    return [(img, tid, REASON_OUTLIER) for r in results for img, tid in r.removed_pairs]


# -- prediction filter ---------------------------------------------------------


@dataclass
class FilterResult:
    removals: list[tuple[str, int, str]] = field(default_factory=list)
    skipped_pairs: list[tuple[str, int, str]] = field(default_factory=list)
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
    store: AnnotationStore,
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
    row_of = {tag_id: i for i, tag_id in enumerate(queries.tag_ids)}
    # the regions by pair, in (image_id, tag_id) order, and in file order within one
    order = np.lexsort((regions.tag_id, regions.image))
    image, tag = regions.image[order], regions.tag_id[order]
    starts = np.flatnonzero(np.diff(image, prepend=-1) | np.diff(tag, prepend=0)).tolist()
    image, tag, table_rows = image.tolist(), tag.tolist(), regions.row[order].tolist()

    result = FilterResult()
    # the scored pairs, their query rows, where their region rows start, and those rows
    pairs, pair_query_rows, pair_starts, region_rows = [], [], [], []
    for start, stop in zip(starts, starts[1:] + [len(order)]):
        image_id, tag_id = regions.image_ids[image[start]], tag[start]
        kept = store.get(image_id, ())
        if tag_id not in kept or whitelist is not None and tag_id not in whitelist:
            continue
        if tag_id not in row_of:
            result.skipped_pairs.append((image_id, tag_id, "tag not in label queries"))
            continue
        rows = table_rows[start:stop]
        if -1 in rows:
            missing = regions.keys[int(order[start + rows.index(-1)])]
            result.skipped_pairs.append((image_id, tag_id, f"missing region embedding {missing!r}"))
            continue
        pairs.append((image_id, tag_id))
        pair_query_rows.append(row_of[tag_id])
        pair_starts.append(len(region_rows))
        region_rows += rows
    if not pairs:
        return result

    query_rows = np.repeat(pair_query_rows, np.diff(pair_starts, append=len(region_rows)))
    scores = _row_dots(
        region_embeddings.matrix, np.asarray(region_rows), queries.matrix, query_rows
    )
    best = np.maximum.reduceat(scores, pair_starts).tolist()
    thresholds = profile.thresholds([tag_id for _, tag_id in pairs]).tolist()
    images_missing_whole: set[str] = set()
    for (image_id, tag_id), query_row, best_score, threshold in zip(
        pairs, pair_query_rows, best, thresholds
    ):
        if best_score >= threshold:
            continue
        reason = REASON_NO_PREDICTION
        if whole_image_embeddings is not None and image_id in whole_image_embeddings:
            query = queries.matrix[query_row]
            whole = float(whole_image_embeddings.vector(image_id) @ query)
            # every region is below threshold - margin when the best one is
            if whole >= threshold and best_score < threshold - margin:
                reason = REASON_CONTRARY
        elif whole_image_embeddings is not None:
            images_missing_whole.add(image_id)
        result.removals.append((image_id, tag_id, reason))
    result.images_without_whole_embedding = len(images_missing_whole)
    return result


def apply_removals(
    store: AnnotationStore,
    removals: Iterable[tuple[str, int, str]],
    stage: str,
) -> tuple[list[AuditEvent], dict[str, int]]:
    events = []
    counts: dict[str, int] = {}
    for image_id, tag_id, reason in sorted(removals):
        tags = store.get(image_id, {})
        if tag_id not in tags:
            continue  # never kept, or removed already
        del tags[tag_id]
        counts[reason] = counts.get(reason, 0) + 1
        events.append(AuditEvent(image_id, tag_id, "removed", reason, stage))
    return events, counts


# -- full pipeline --------------------------------------------------------------


@dataclass
class EngineResult:
    parsed: AnnotationStore
    final: AnnotationStore
    stats: EngineStats
    audit: list[AuditEvent]
    unmapped_surfaces: int
    rejected_generated: int
    filter_skipped: list[tuple[str, int, str]]
    images_without_whole_embedding: int  # images the filter could not check for contrary
    parse_rejects: RejectSummary  # malformed caption records skipped by parse
    generated_rejects: RejectSummary  # malformed generated-caption records skipped


def _tag_id_record(obj) -> tuple[str, list[int]]:
    image_id, tag_ids = obj["image_id"], obj["tag_ids"]
    # image ids are sorted as strings; a string of tag_ids would be read digit by digit
    if not isinstance(image_id, str) or not isinstance(tag_ids, list):
        raise TypeError("image_id must be a string and tag_ids a list")
    return image_id, [int(t) for t in tag_ids]


def load_tag_id_records(path: str | Path) -> list[tuple[str, list[int]]]:
    """JSONL of {"image_id": ..., "tag_ids": [...]}."""
    return list(jsonl.read(path, "tag-id", _tag_id_record))


def _region_record(obj) -> tuple[str, str, int, str]:
    image_id, region_id = obj["image_id"], str(obj["region_id"])
    # a number would pair with the string id it prints as
    if not isinstance(image_id, str):
        raise TypeError("image_id must be a string")
    tag_id, score, key = int(obj["tag_id"]), float(obj["score"]), str(obj["embedding_key"])
    if not -(2**63) <= tag_id < 2**63:
        raise ValueError("tag_id outside int64")
    if not 0.0 <= score <= 1.0:
        raise jsonl.RecordError("detector score outside [0, 1]")
    return image_id, region_id, tag_id, key


def load_regions(path: str | Path) -> Regions:
    return Regions.of(jsonl.read(path, "region", _region_record))


def _caption_tag_ids(
    path: str | Path, config: EngineConfig, vocab: TagVocabulary, lexicons: LexiconBundle
) -> tuple[dict[str, list[int]], int, RejectSummary]:
    """Parse the caption file at path and map each image's tags: the distinct
    tag ids of every image with one, the count of tags that map to none, and
    the malformed caption records."""
    corpus = parse_corpus_file(path, config.lexicon_dir, workers=config.workers)
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


def _parse_stage(
    config: EngineConfig, vocab: TagVocabulary, lexicons: LexiconBundle
) -> tuple[AnnotationStore, int, RejectSummary]:
    image_tag_ids, unmapped, rejects = _caption_tag_ids(config.captions, config, vocab, lexicons)
    store = {
        image_id: dict.fromkeys(tag_ids, PROV_PARSED) for image_id, tag_ids in image_tag_ids.items()
    }
    if config.seed_annotations is not None:
        records = load_tag_id_records(config.seed_annotations)
        valid = set(vocab.tag_ids())
        for image_id, tag_ids in records:
            tags = store.setdefault(image_id, {})
            for tag_id in tag_ids:
                if tag_id in valid:
                    tags.setdefault(tag_id, PROV_SEED)
                else:
                    unmapped += 1
    return store, unmapped, rejects


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

    The inputs that clean and the filter read load before parse, and a bad
    one fails the run at once: the regions, region embeddings and whitelist
    under stage clean (filter when clean does not run), then the annotations
    and the vocabulary, then the label queries, thresholds and image
    embeddings under stage filter. The clean tasks start once their inputs
    load, so at more than one worker the helper processes clean while this
    process parses and generates; then it joins the cleaning. Parse and
    generate split their caption files over workers processes as `parse`
    does, so a caption file that outlasts the cleaning does not leave the
    helpers' cores idle."""
    stats = EngineStats()
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
        parsed = None
        if annotations is not None:
            parsed = load_annotations(annotations)
        vocab = load_vocabulary(config.vocab)
        if STAGE_FILTER in stages:
            with _stage(STAGE_FILTER):
                queries = load_label_queries(config.queries, vocab)
                profile = load_threshold_profile(config.thresholds)
                profile.validate_against(queries.tag_ids)
                whole = (
                    normalize(load_embeddings(config.image_embeddings)) if config.image_embeddings
                    else None
                )
        if parsed is None or STAGE_GENERATE in stages:
            lexicons = load_lexicons(config.lexicon_dir)
        unmapped, parse_rejects = 0, RejectSummary()
        if parsed is None:
            with _stage(STAGE_PARSE):
                parsed, unmapped, parse_rejects = _parse_stage(config, vocab, lexicons)
        stats.rows.append(_stage_row(STAGE_PARSE, parsed, added=count_kept(parsed)))
        audit: list[AuditEvent] = []
        rejected, generated_rejects = 0, RejectSummary()
        if STAGE_GENERATE in stages:
            with _stage(STAGE_GENERATE):
                records = [r for path in config.generated_tags for r in load_tag_id_records(path)]
                caption_tags: dict[str, list[int]] = {}
                for path in config.generated_captions:
                    tag_ids, _, rejects = _caption_tag_ids(path, config, vocab, lexicons)
                    generated_rejects.merge(rejects)
                    for image_id, ids in tag_ids.items():
                        caption_tags.setdefault(image_id, []).extend(ids)
                merged, audit, rejected = generate_merge(
                    parsed, records, caption_tags, set(vocab.tag_ids())
                )
                stats.rows.append(_stage_row(STAGE_GENERATE, merged, added=len(audit)))
        else:
            # the stages below remove from merged; parsed stays the baseline
            merged = {image_id: dict(tags) for image_id, tags in parsed.items()}
        if STAGE_CLEAN in stages:
            with _stage(STAGE_CLEAN):
                events, counts = apply_removals(merged, finish_clean(cleaning), STAGE_CLEAN)
                audit += events
                stats.rows.append(_stage_row(STAGE_CLEAN, merged, removed=counts))
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
            events, counts = apply_removals(merged, outcome.removals, STAGE_FILTER)
            audit += events
            filter_skipped = outcome.skipped_pairs
            without_whole = outcome.images_without_whole_embedding
            stats.rows.append(_stage_row(STAGE_FILTER, merged, removed=counts))

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
        rejected_generated=rejected,
        filter_skipped=filter_skipped,
        images_without_whole_embedding=without_whole,
        parse_rejects=parse_rejects,
        generated_rejects=generated_rejects,
    )


# -- file formats ---------------------------------------------------------------


def write_annotations(store: AnnotationStore, path: str | Path) -> None:
    """Write kept annotations as JSONL; removals live in the audit log. Each
    image with kept tags is one line, as json.dumps({"image_id": ..., "tags":
    [{"tag_id": ..., "provenance": ...}, ...]}, ensure_ascii=False) writes it."""
    dumps = jsonl.memo_dumps()

    def lines():
        for image_id in sorted(store):
            tags = ", ".join(
                f'{{"tag_id": {dumps(tag_id)}, "provenance": {dumps(provenance)}}}'
                for tag_id, provenance in sorted(store[image_id].items())
            )
            if tags:
                yield f'{{"image_id": {dumps(image_id)}, "tags": [{tags}]}}\n'

    jsonl.write_lines(path, lines())


def _annotation(obj) -> tuple[str, dict[int, str]]:
    tags = {int(t["tag_id"]): t.get("provenance", PROV_PARSED) for t in obj["tags"]}
    image_id = obj["image_id"]
    # image ids are sorted as strings and matched to the regions' ids
    if not isinstance(image_id, str):
        raise TypeError("image_id must be a string")
    return image_id, tags


def load_annotations(path: str | Path) -> AnnotationStore:
    """JSONL of {"image_id": ..., "tags": [{"tag_id": ..., "provenance": ...}]};
    a record whose image_id is not a string is malformed."""
    return dict(jsonl.read(path, "annotation", _annotation))


def write_audit(events: Sequence[AuditEvent], path: str | Path) -> None:
    """One line per event, as json.dumps({"image_id": ..., "tag_id": ...,
    "action": ..., "reason": ..., "stage": ...}, ensure_ascii=False) writes it."""
    dumps = jsonl.memo_dumps()
    jsonl.write_lines(path, (
        f'{{"image_id": {dumps(e.image_id)}, "tag_id": {dumps(e.tag_id)}, '
        f'"action": {dumps(e.action)}, "reason": {dumps(e.reason)}, "stage": {dumps(e.stage)}}}\n'
        for e in events
    ))


def _audit_event(obj) -> AuditEvent:
    return AuditEvent(
        obj["image_id"], int(obj["tag_id"]), obj["action"], obj["reason"], obj["stage"]
    )


def load_audit(path: str | Path) -> list[AuditEvent]:
    return list(jsonl.read(path, "audit", _audit_event))


def replay_audit(parsed: AnnotationStore, events: Sequence[AuditEvent]) -> set[tuple[str, int]]:
    """Apply audited additions and removals over the parsed baseline."""
    current = kept_pairs(parsed)
    for e in events:
        if e.action == "added":
            current.add((e.image_id, e.tag_id))
        elif e.action == "removed":
            current.discard((e.image_id, e.tag_id))
        else:
            raise TagforgeError(f"unknown audit action {e.action!r}")
    return current


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
    return stats
