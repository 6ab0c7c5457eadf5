"""Synthetic planted-truth corpus for end-to-end engine tests.

Builds a complete on-disk engine input set: captions whose parse yields a
corrupted tag set (40% of true tags dropped), a generated-tags file restoring
the dropped tags plus injected false tags, regions whose embeddings sit on
the tag query (true pairs) or orthogonal to it (false pairs), whole-image
embeddings, label queries, vocabulary, whitelist, and the engine config.
`Region` and `clean_regions` let tests build regions and clean one category;
`annotations_of`, `audit_of`, `pairs_of`, `events_of`, `provenances`,
`removed_pairs` and `filter_removals` turn the engine's columnar values into
plain Python ones and back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from tagforge.config import EngineConfig
from tagforge.data_engine import (
    EVENTS,
    PROVENANCES,
    Annotations,
    Audit,
    Pairs,
    Regions,
    clean_category,
)
from tagforge.embedding_store import EmbeddingTable, save_embeddings
from tagforge.label_system import TagVocabulary, build_label_system, save_vocabulary
from tagforge.similarity_tagger import build_label_queries, prompt_key, save_label_queries

TAG_SURFACES = (
    "airplane bear bed bench bicycle bird boat book bottle bowl box bridge bus car cat "
    "chair clock couch cow cup deer desk dog door duck elephant flower fork fox frog "
    "giraffe goat horse house kite knife lamp lion monkey owl phone pig pizza plate "
    "rabbit sheep table tiger train tree"
).split()

DIM = 16
TEMPLATES = ["a photo of a {tag}", "an image of a {tag}"]


class Region(NamedTuple):
    """One record of a regions file, as Regions.of takes it."""

    image_id: str
    region_id: str
    tag_id: int
    embedding_key: str


def clean_regions(tag_id, records, table, *args, **kwargs):
    """clean_category on the regions of records, all of tag_id, and the
    (image_id, region_id) of its outliers."""
    regions = Regions.of(records).resolve(table)
    members = regions.categories()[tag_id]
    rows, image = regions.row[members], regions.image[members]
    result = clean_category(tag_id, rows, image, table.matrix, *args, **kwargs)
    return result, [tuple(records[i][:2]) for i in members[result.outliers].tolist()]


def annotations_of(store, image_ids=(), tag_ids=()) -> Annotations:
    """The Annotations of {image_id: {tag_id: provenance}}, provenance any JSON
    value, over tables that also hold image_ids and tag_ids."""
    ids = sorted(set(store) | set(image_ids))
    index = {image_id: i for i, image_id in enumerate(ids)}
    tags = np.unique(np.array([t for ts in store.values() for t in ts] + list(tag_ids), np.int64))
    texts, keys, codes = list(PROVENANCES), [], []
    for image_id, image_tags in store.items():
        for tag_id, provenance in image_tags.items():
            text = json.dumps(provenance, ensure_ascii=False)
            if text not in texts:
                texts.append(text)
            keys.append(index[image_id] * len(tags) + int(np.searchsorted(tags, tag_id)))
            codes.append(texts.index(text))
    keys, codes = np.array(keys, np.int64), np.array(codes, np.int64)
    order = np.argsort(keys)
    return Annotations(ids, tags, keys[order], codes[order], texts)


def audit_of(events) -> Audit:
    """The Audit of (image_id, tag_id, action, reason, stage) events, over an
    image table in the order the events first name each image."""
    index = {event[0]: None for event in events}
    index = {image_id: i for i, image_id in enumerate(index)}
    kinds = list({event[2:]: None for event in events})
    tags = np.unique(np.array([event[1] for event in events], np.int64))
    keys = [index[e[0]] * len(tags) + int(np.searchsorted(tags, e[1])) for e in events]
    codes = [kinds.index(event[2:]) for event in events]
    return Audit(list(index), tags, np.array(keys, np.int64), np.array(codes, np.int64), kinds)


def pairs_of(pairs: Pairs) -> list[tuple[str, int]]:
    """The (image_id, tag_id) of each key of pairs, in order."""
    image, tag = pairs.split()
    return [(pairs.image_ids[i], t) for i, t in zip(image.tolist(), tag.tolist())]


def events_of(audit: Audit) -> list[tuple]:
    """The (image_id, tag_id, action, reason, stage) of each event, in order."""
    return [pair + tuple(audit.kinds[e]) for pair, e in zip(pairs_of(audit), audit.event.tolist())]


def provenances(annotations: Annotations) -> dict[tuple[str, int], object]:
    """{(image_id, tag_id): provenance} of annotations."""
    texts = [annotations.provenances[c] for c in annotations.provenance.tolist()]
    return {pair: json.loads(text) for pair, text in zip(pairs_of(annotations), texts)}


def removed_pairs(result, records) -> list[tuple[str, int]]:
    """The (image_id, tag_id) pairs a CategoryCleanResult of records removes."""
    image_ids = sorted({r.image_id for r in records})
    return [(image_ids[i], result.tag_id) for i in result.removed_images.tolist()]


def filter_removals(result, store: Annotations) -> list[tuple[str, int, str]]:
    """The (image_id, tag_id, reason) removals of a FilterResult over store."""
    pairs = Pairs(store.image_ids, store.tag_ids, result.removals)
    return [pair + (EVENTS[e][1],) for pair, e in zip(pairs_of(pairs), result.events.tolist())]


@dataclass
class SyntheticCorpus:
    config: EngineConfig
    vocab: TagVocabulary
    truth: set[tuple[str, int]]          # planted ground-truth (image, tag_id) pairs
    parsed_expected: set[tuple[str, int]]  # truth minus dropped
    injected: set[tuple[str, int]]       # false pairs added by generation


def build_synthetic_corpus(
    root: Path,
    n_images: int = 1000,
    seed: int = 20240901,
    drop_rate: float = 0.40,
    false_rate: float = 0.15,
    fraction: float = 0.10,
) -> SyntheticCorpus:
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)

    vocab = build_label_system({s: 100 for s in TAG_SURFACES}, k=len(TAG_SURFACES))
    vocab_path = root / "vocab.tsv"
    save_vocabulary(vocab, vocab_path)
    id_of = vocab.surface_to_id
    surfaces_by_id = {tid: vocab.canonicals[tid] for tid in vocab.tag_ids()}

    # planted ground truth
    images = [f"img{i:05d}" for i in range(n_images)]
    truth: set[tuple[str, int]] = set()
    truth_by_image: dict[str, list[int]] = {}
    for image in images:
        count = int(rng.integers(4, 9))
        tags = rng.choice(len(TAG_SURFACES), size=count, replace=False)
        truth_by_image[image] = sorted(int(t) for t in tags)
        truth.update((image, int(t)) for t in tags)

    # corrupt: drop 40% of true pairs from the captions
    truth_list = sorted(truth)
    n_drop = int(round(drop_rate * len(truth_list)))
    drop_idx = set(rng.choice(len(truth_list), size=n_drop, replace=False).tolist())
    dropped = {truth_list[i] for i in drop_idx}
    parsed_expected = truth - dropped

    captions_path = root / "captions.jsonl"
    with open(captions_path, "w", encoding="utf-8") as fh:
        for image in images:
            kept = [surfaces_by_id[t] for t in truth_by_image[image] if (image, t) not in dropped]
            caption = "a " + " and a ".join(kept) if kept else ""
            fh.write(json.dumps({"image_id": image, "caption": caption, "source": "synthetic"}))
            fh.write("\n")

    # inject false pairs: 15% of the true instance count, off-truth
    n_false = int(round(false_rate * len(truth_list)))
    injected: set[tuple[str, int]] = set()
    while len(injected) < n_false:
        image = images[int(rng.integers(n_images))]
        tag = int(rng.integers(len(TAG_SURFACES)))
        if (image, tag) not in truth and (image, tag) not in injected:
            injected.add((image, tag))

    generated_path = root / "generated_tags.jsonl"
    gen_by_image: dict[str, list[int]] = {}
    for image, tag in sorted(dropped | injected):
        gen_by_image.setdefault(image, []).append(tag)
    with open(generated_path, "w", encoding="utf-8") as fh:
        for image in sorted(gen_by_image):
            fh.write(json.dumps({"image_id": image, "tag_ids": gen_by_image[image]}))
            fh.write("\n")

    # prompt embeddings -> label queries
    prompt_vectors = {}
    for canonical in vocab.canonicals:
        for t in TEMPLATES:
            v = rng.normal(size=DIM)
            prompt_vectors[prompt_key(t, canonical)] = v / np.linalg.norm(v)
    prompts = EmbeddingTable.from_vectors(prompt_vectors, normalized=True)
    queries = build_label_queries(vocab, prompts, TEMPLATES)
    queries_path = root / "queries.emb"
    save_label_queries(queries, queries_path, TEMPLATES)
    query_row = {tid: queries.matrix[i] for i, tid in enumerate(queries.tag_ids)}

    # regions: true pairs get two on-query regions, false pairs one off-query
    def on_query(tag_id):
        v = query_row[tag_id] + 0.05 * rng.normal(size=DIM)
        return v / np.linalg.norm(v)

    def off_query(tag_id):
        v = rng.normal(size=DIM)
        q = query_row[tag_id]
        v = v - (v @ q) * q
        return v / np.linalg.norm(v)

    regions_path = root / "regions.jsonl"
    region_vectors: dict[str, np.ndarray] = {}
    with open(regions_path, "w", encoding="utf-8") as fh:
        for image, tag in sorted(truth | injected):
            count = 2 if (image, tag) in truth else 1
            maker = on_query if (image, tag) in truth else off_query
            for j in range(count):
                region_id = f"{image}-t{tag}-r{j}"
                key = f"emb:{region_id}"
                region_vectors[key] = maker(tag)
                fh.write(
                    json.dumps(
                        {
                            "image_id": image,
                            "region_id": region_id,
                            "tag_id": tag,
                            "score": float(rng.uniform(0.5, 1.0)),
                            "embedding_key": key,
                        }
                    )
                )
                fh.write("\n")
    region_emb_path = root / "regions.emb"
    save_embeddings(
        EmbeddingTable.from_vectors(region_vectors, normalized=True), region_emb_path
    )

    # whole-image embeddings near the mean of the image's true queries
    image_vectors = {}
    for image in images:
        mean = np.mean([query_row[t] for t in truth_by_image[image]], axis=0)
        mean = mean + 0.02 * rng.normal(size=DIM)
        image_vectors[image] = mean / np.linalg.norm(mean)
    image_emb_path = root / "images.emb"
    save_embeddings(
        EmbeddingTable.from_vectors(image_vectors, normalized=True), image_emb_path
    )

    whitelist_path = root / "whitelist.txt"
    whitelist_path.write_text("".join(f"{tid}\n" for tid in vocab.tag_ids()))

    out_dir = root / "out"
    config = EngineConfig(
        captions=captions_path,
        vocab=vocab_path,
        regions=regions_path,
        region_embeddings=region_emb_path,
        queries=queries_path,
        out_dir=out_dir,
        seed=seed,
        generated_tags=[generated_path],
        image_embeddings=image_emb_path,
        whitelist=whitelist_path,
        fraction=fraction,
    )
    config.validate()
    return SyntheticCorpus(
        config=config,
        vocab=vocab,
        truth=truth,
        parsed_expected=parsed_expected,
        injected=injected,
    )
