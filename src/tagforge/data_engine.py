"""The tagging data engine: merge generated annotations into the parsed set,
then remove suspect tags by per-category region clustering and by
region-level prediction filtering.

Stages run in a fixed order: parse -> generate -> clean -> filter. Generation
only adds, cleaning only removes, and every addition or removal lands in the
audit log, so replaying the audit over the parsed baseline reproduces the
final annotation set exactly. Per-category randomness is derived from
(seed, tag_id), making results independent of category processing order.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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

STATE_KEPT = "kept"
STATE_REMOVED_OUTLIER = "removed_outlier"
STATE_REMOVED_NO_PREDICTION = "removed_no_prediction"
STATE_REMOVED_CONTRARY = "removed_contrary"

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
    def __init__(self, stage: str, message: str, partial_stats: "EngineStats | None" = None):
        self.stage = stage
        self.message = message
        self.partial_stats = partial_stats
        super().__init__(f"engine stage {stage!r} failed: {message}")

    def __reduce__(self):
        # lets an error raised in a clean worker process reach the parent
        return type(self), (self.stage, self.message, self.partial_stats)


@dataclass
class TagEntry:
    provenance: str
    state: str = STATE_KEPT


# image_id -> {tag_id -> TagEntry}
AnnotationStore = dict[str, dict[int, TagEntry]]


class RegionRecord(NamedTuple):
    image_id: str
    region_id: str
    tag_id: int
    detector_score: float
    embedding_key: str


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
    return sum(1 for tags in store.values() for e in tags.values() if e.state == STATE_KEPT)


def images_with_kept(store: AnnotationStore) -> int:
    return sum(1 for tags in store.values() if any(e.state == STATE_KEPT for e in tags.values()))


def kept_pairs(store: AnnotationStore) -> set[tuple[str, int]]:
    return {
        (image_id, tag_id)
        for image_id, tags in store.items()
        for tag_id, e in tags.items()
        if e.state == STATE_KEPT
    }


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
    merged: AnnotationStore = {
        image_id: {tag_id: TagEntry(e.provenance, e.state) for tag_id, e in tags.items()}
        for image_id, tags in parsed.items()
    }
    additions: list[tuple[str, int]] = []
    rejected = 0

    def add(image_id: str, tag_id: int) -> None:
        tags = merged.setdefault(image_id, {})
        if tag_id not in tags:
            tags[tag_id] = TagEntry(PROV_GENERATED)
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
    outlier_regions: list[tuple[str, str]] = field(default_factory=list)
    removed_pairs: list[tuple[str, int]] = field(default_factory=list)


OUTLIER_SCOPE_CATEGORY = "category"
OUTLIER_SCOPE_CLUSTER = "cluster"


def _ceil_fraction(fraction: float, n: int) -> int:
    return math.ceil(fraction * n - _CEIL_EPS) if fraction > 0 and n > 0 else 0


def clean_category(
    tag_id: int,
    regions: Sequence[RegionRecord],
    region_embeddings: EmbeddingTable,
    fraction: float,
    seed: int,
    min_regions: int = DEFAULT_MIN_REGIONS,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    outlier_scope: str = OUTLIER_SCOPE_CATEGORY,
) -> CategoryCleanResult:
    """Cluster one category's regions and mark the farthest fraction as
    outliers.

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
    regs = sorted(regions, key=attrgetter("image_id", "region_id"))
    n = len(regs)
    if n < min_regions:
        return CategoryCleanResult(tag_id, n, 0, skipped=True)

    keys = [r.embedding_key for r in regs]
    try:
        points = region_embeddings.rows(keys)
    except KeyError:
        missing = [key for key in keys if key not in region_embeddings]
        raise EngineError(
            STAGE_CLEAN,
            f"category {tag_id}: unresolvable embedding keys: {missing[:5]}"
            + ("" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"),
        ) from None

    k = distinct_rows(points, stop_at=cluster_count(n))
    category_seed = derive_seed(seed, tag_id)
    result = lloyd(points, kmeanspp_init(points, k, category_seed), max_iter=max_iter, tol=tol)

    # regs are in (image_id, region_id) order, so a stable sort by distance
    # descending breaks ties by (image_id, region_id) ascending
    ranked = np.argsort(-result.distances, kind="stable")
    outlier = np.zeros(n, dtype=bool)
    if outlier_scope == OUTLIER_SCOPE_CATEGORY:
        outlier[ranked[: _ceil_fraction(fraction, n)]] = True
    else:
        ranked_cluster = result.assignment[ranked]
        for cluster in range(k):
            members = ranked[ranked_cluster == cluster]
            outlier[members[: _ceil_fraction(fraction, len(members))]] = True

    # regs are grouped by image; a pair goes when all its regions are outliers
    flags = outlier.tolist()
    removed = [
        (image_id, tag_id)
        for image_id, idxs in groupby(range(n), key=lambda i: regs[i].image_id)
        if all(flags[i] for i in idxs)
    ]
    return CategoryCleanResult(
        tag_id=tag_id,
        region_count=n,
        k=k,
        skipped=False,
        outlier_regions=[(regs[i].image_id, regs[i].region_id) for i in np.flatnonzero(outlier)],
        removed_pairs=removed,
    )


def _clean_one(shared: tuple, tag_id: int) -> CategoryCleanResult:
    by_tag, region_embeddings, params = shared
    return clean_category(tag_id, by_tag[tag_id], region_embeddings, **params)


class CleanRun(NamedTuple):
    """Clean tasks under way: the categories start_clean cleans, and their
    results as pool.run_tasks gives them."""

    category_ids: list[int]
    results: Iterator[CategoryCleanResult]


def start_clean(
    regions: Sequence[RegionRecord],
    region_embeddings: EmbeddingTable,
    whitelist: set[int] | None,
    workers: int = 1,
    **params,
) -> CleanRun:
    """Start cleaning every category that has regions (only whitelisted ones
    when a whitelist is given) with clean_category's keyword params.

    The categories go to pool.run_tasks largest first, one task each, with
    the regions and the embedding table shared. At more than one worker the
    helper processes start cleaning now; finish_clean joins them.
    """
    by_tag: dict[int, list[RegionRecord]] = {}
    for r in regions:
        by_tag.setdefault(r.tag_id, []).append(r)
    category_ids = sorted(by_tag) if whitelist is None else sorted(set(by_tag) & whitelist)
    largest_first = sorted(category_ids, key=lambda t: (-len(by_tag[t]), t))
    shared = (by_tag, region_embeddings, params)
    return CleanRun(category_ids, run_tasks(_clean_one, largest_first, shared, workers))


def finish_clean(run: CleanRun) -> list[tuple[str, int, str]]:
    """Run the clean tasks left, wait for the rest and return the outlier
    removals. Results merge in ascending tag_id order, so the removals are
    the same at every worker count. When several categories fail, the first
    failure met is raised: at one worker, the largest failing category's."""
    done = {r.tag_id: r for r in run.results}
    return [
        (img, tid, REASON_OUTLIER) for t in run.category_ids for img, tid in done[t].removed_pairs
    ]


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
    regions: Sequence[RegionRecord],
    region_embeddings: EmbeddingTable,
    whole_image_embeddings: EmbeddingTable | None,
    queries: LabelQueryMatrix,
    profile: ThresholdProfile,
    margin: float = DEFAULT_MARGIN,
    whitelist: set[int] | None = None,
) -> FilterResult:
    """Remove kept pairs whose regions never reach the tag's threshold.

    A pair with at least one region is removed_no_prediction when its best
    region score is below the effective threshold; it is removed_contrary
    instead when the whole image scores at or above threshold while every
    region stays below threshold - margin. Pairs without regions are never
    touched; pairs with unresolvable embeddings are skipped and reported.
    """
    row_of = {tag_id: i for i, tag_id in enumerate(queries.tag_ids)}
    # each pair's region rows in the table, and its first unresolvable key
    rows_by_pair: dict[tuple[str, int], list[int | None]] = {}
    first_missing: dict[tuple[str, int], str] = {}
    table_rows = region_embeddings.row_indices([r.embedding_key for r in regions])
    for r, row in zip(regions, table_rows):
        pair = (r.image_id, r.tag_id)
        rows_by_pair.setdefault(pair, []).append(row)
        if row is None:
            first_missing.setdefault(pair, r.embedding_key)

    result = FilterResult()
    # the scored pairs, in (image_id, tag_id) order, and their region rows
    pairs: list[tuple[str, int]] = []
    pair_query_rows: list[int] = []
    pair_starts: list[int] = []
    region_rows: list[int] = []
    for image_id in sorted(store):
        tags = store[image_id]
        for tag_id in sorted(tags):
            if tags[tag_id].state != STATE_KEPT:
                continue
            if whitelist is not None and tag_id not in whitelist:
                continue
            rows = rows_by_pair.get((image_id, tag_id))
            if rows is None:
                continue
            if tag_id not in row_of:
                result.skipped_pairs.append((image_id, tag_id, "tag not in label queries"))
                continue
            missing = first_missing.get((image_id, tag_id))
            if missing is not None:
                result.skipped_pairs.append(
                    (image_id, tag_id, f"missing region embedding {missing!r}")
                )
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
    reason_to_state = {
        REASON_OUTLIER: STATE_REMOVED_OUTLIER,
        REASON_NO_PREDICTION: STATE_REMOVED_NO_PREDICTION,
        REASON_CONTRARY: STATE_REMOVED_CONTRARY,
    }
    events = []
    counts: dict[str, int] = {}
    for image_id, tag_id, reason in sorted(removals):
        entry = store.get(image_id, {}).get(tag_id)
        if entry is None or entry.state != STATE_KEPT:
            continue
        entry.state = reason_to_state[reason]
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
    parse_rejects: RejectSummary  # malformed caption records skipped by parse
    generated_rejects: RejectSummary  # malformed generated-caption records skipped


def _tag_id_record(obj) -> tuple[str, list[int]]:
    tag_ids = obj["tag_ids"]
    if not isinstance(tag_ids, list):  # a string would be read digit by digit
        raise TypeError("tag_ids must be a list")
    return obj["image_id"], [int(t) for t in tag_ids]


def load_tag_id_records(path: str | Path) -> list[tuple[str, list[int]]]:
    """JSONL of {"image_id": ..., "tag_ids": [...]}."""
    return list(jsonl.read(path, "tag-id", _tag_id_record))


def _region_record(obj) -> RegionRecord:
    record = RegionRecord(
        str(obj["image_id"]),
        str(obj["region_id"]),
        int(obj["tag_id"]),
        float(obj["score"]),
        str(obj["embedding_key"]),
    )
    if not 0.0 <= record.detector_score <= 1.0:
        raise jsonl.RecordError("detector score outside [0, 1]")
    return record


def load_regions(path: str | Path) -> list[RegionRecord]:
    return list(jsonl.read(path, "region", _region_record))


def _parse_stage(
    config: EngineConfig, vocab: TagVocabulary, lexicons: LexiconBundle
) -> tuple[AnnotationStore, int, RejectSummary]:
    corpus = parse_corpus_file(config.captions, config.lexicon_dir, workers=config.workers)
    store: AnnotationStore = {}
    unmapped = 0
    for image_id in sorted(corpus.image_tags):
        tags: dict[int, TagEntry] = {}
        for parsed_tag in corpus.image_tags[image_id]:
            tag_id = map_tag(parsed_tag.surface, vocab, lexicons)
            if tag_id is None:
                unmapped += 1
            else:
                tags.setdefault(tag_id, TagEntry(PROV_PARSED))
        if tags:
            store[image_id] = tags

    if config.seed_annotations is not None:
        records = load_tag_id_records(config.seed_annotations)
        valid = set(vocab.tag_ids())
        for image_id, tag_ids in records:
            tags = store.setdefault(image_id, {})
            for tag_id in tag_ids:
                if tag_id in valid:
                    tags.setdefault(tag_id, TagEntry(PROV_SEED))
                else:
                    unmapped += 1
    return store, unmapped, corpus.rejects


# The generate, clean and filter stages, written once: run_engine calls them
# in order, and `engine generate` and `engine clean` call them on their own.


def generate_stage(
    store: AnnotationStore,
    vocab: TagVocabulary,
    lexicons: LexiconBundle,
    generated_tags: Sequence[str | Path],
    generated_captions: Sequence[str | Path],
    lexicon_dir: str | Path | None,
    workers: int,
) -> tuple[AnnotationStore, list[AuditEvent], int, RejectSummary]:
    """Merge the generated tag-id files and the tags parsed from the
    generated caption files into a copy of store. Returns the merged store,
    its additions, the rejected tag-id records and the caption records the
    parser skipped."""
    records = [r for path in generated_tags for r in load_tag_id_records(path)]
    caption_tags: dict[str, set[int]] = {}
    caption_rejects = RejectSummary()
    for path in generated_captions:
        corpus = parse_corpus_file(path, lexicon_dir, workers=workers)
        caption_rejects.merge(corpus.rejects)
        for image_id, tags in corpus.image_tags.items():
            ids = {
                tid
                for tid in (map_tag(t.surface, vocab, lexicons) for t in tags)
                if tid is not None
            }
            if ids:
                caption_tags.setdefault(image_id, set()).update(ids)
    merged, events, rejected = generate_merge(store, records, caption_tags, set(vocab.tag_ids()))
    return merged, events, rejected, caption_rejects


class RegionInputs(NamedTuple):
    """The clean stage's loaded inputs, which the filter stage reuses."""

    regions: list[RegionRecord]
    table: EmbeddingTable
    whitelist: set[int] | None


def load_region_inputs(
    regions: str | Path, region_embeddings: str | Path, whitelist: str | Path | None
) -> RegionInputs:
    """Load the regions, their embeddings (normalized) and the whitelist."""
    return RegionInputs(
        load_regions(regions),
        normalize(load_embeddings(region_embeddings)),
        load_whitelist(whitelist) if whitelist else None,
    )


def filter_stage(
    store: AnnotationStore,
    inputs: RegionInputs,
    vocab: TagVocabulary,
    queries: str | Path,
    thresholds: str | Path | None,
    image_embeddings: str | Path | None,
    margin: float,
) -> tuple[list[AuditEvent], dict[str, int], list[tuple[str, int, str]]]:
    """Load the label queries, the threshold profile (default flat) and the
    whole-image embeddings, run the prediction filter and mark its removals
    in store. Returns the removals, their counts and the skipped pairs."""
    query_matrix = load_label_queries(queries, vocab)
    profile = load_threshold_profile(thresholds) if thresholds else ThresholdProfile()
    profile.validate_against(query_matrix.tag_ids)
    whole = normalize(load_embeddings(image_embeddings)) if image_embeddings else None
    outcome = prediction_filter(
        store, inputs.regions, inputs.table, whole, query_matrix, profile,
        margin=margin, whitelist=inputs.whitelist,
    )
    return (*apply_removals(store, outcome.removals, STAGE_FILTER), outcome.skipped_pairs)


def run_engine(config: EngineConfig) -> EngineResult:
    """Execute parse -> generate -> clean -> filter, collect the accounting
    and write parsed/final annotation JSONL, the audit log and the stats
    table into config.out_dir. Any stage error aborts with the stage name
    and the stats accumulated so far.

    The clean inputs load first and the clean tasks start before parse, so
    at more than one worker the helper processes clean while this process
    parses and generates; then it joins the cleaning. Parse and generate
    split their caption files over workers processes as `parse` does, so a
    caption file that outlasts the cleaning does not leave the helpers'
    cores idle. A clean input that fails to load is reported by the clean
    stage, so a parse or generate error still comes first."""
    stats = EngineStats()

    @contextmanager
    def stage(name: str):
        try:
            yield
        except EngineError as exc:
            exc.partial_stats = stats
            raise
        except Exception as exc:
            raise EngineError(name, str(exc), partial_stats=stats) from exc

    cleaning = load_error = None
    try:
        inputs = load_region_inputs(config.regions, config.region_embeddings, config.whitelist)
        cleaning = start_clean(
            *inputs, workers=config.workers, fraction=config.fraction, seed=config.seed,
            min_regions=config.min_regions, tol=config.tol, max_iter=config.max_iter,
            outlier_scope=config.outlier_scope,
        )
    except Exception as exc:
        load_error = exc
    try:
        with stage(STAGE_PARSE):
            vocab = load_vocabulary(config.vocab)
            lexicons = load_lexicons(config.lexicon_dir)
            parsed, unmapped, parse_rejects = _parse_stage(config, vocab, lexicons)
            stats.rows.append(_stage_row(STAGE_PARSE, parsed, added=count_kept(parsed)))
        with stage(STAGE_GENERATE):
            merged, audit, rejected, generated_rejects = generate_stage(
                parsed, vocab, lexicons, config.generated_tags, config.generated_captions,
                config.lexicon_dir, workers=config.workers,
            )
            stats.rows.append(_stage_row(STAGE_GENERATE, merged, added=len(audit)))
        with stage(STAGE_CLEAN):
            if cleaning is None:
                raise load_error
            events, counts = apply_removals(merged, finish_clean(cleaning), STAGE_CLEAN)
            audit += events
            stats.rows.append(_stage_row(STAGE_CLEAN, merged, removed=counts))
    finally:
        if cleaning is not None:
            cleaning.results.close()  # stops the helpers when a stage failed
    with stage(STAGE_FILTER):
        events, counts, filter_skipped = filter_stage(
            merged, inputs, vocab, config.queries, config.thresholds, config.image_embeddings,
            config.margin,
        )
        audit += events
        stats.rows.append(_stage_row(STAGE_FILTER, merged, removed=counts))

    stats.validate_conservation()
    if replay_audit(parsed, audit) != kept_pairs(merged):
        raise EngineError(
            "audit", "replaying the audit over the parsed annotations does not give the final "
            "ones", partial_stats=stats,
        )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_annotations(parsed, out_dir / "parsed.jsonl")
    write_annotations(merged, out_dir / "final.jsonl")
    write_audit(audit, out_dir / "audit.jsonl")
    write_stats(stats, out_dir / "stats.tsv")
    return EngineResult(
        parsed=parsed,
        final=merged,
        stats=stats,
        audit=audit,
        unmapped_surfaces=unmapped,
        rejected_generated=rejected,
        filter_skipped=filter_skipped,
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
                f'{{"tag_id": {dumps(tag_id)}, "provenance": {dumps(e.provenance)}}}'
                for tag_id, e in sorted(store[image_id].items())
                if e.state == STATE_KEPT
            )
            if tags:
                yield f'{{"image_id": {dumps(image_id)}, "tags": [{tags}]}}\n'

    jsonl.write_lines(path, lines())


def _annotation(obj) -> tuple[str, dict[int, TagEntry]]:
    tags = {int(t["tag_id"]): TagEntry(t.get("provenance", PROV_PARSED)) for t in obj["tags"]}
    image_id = obj["image_id"]
    hash(image_id)  # an id that cannot key the store is a malformed record
    return image_id, tags


def load_annotations(path: str | Path) -> AnnotationStore:
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
