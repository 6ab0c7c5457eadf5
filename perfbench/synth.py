"""Seeded generators for the benchmark's planted-truth inputs.

Every generator draws from ``numpy.random.default_rng([seed, stream])`` in a
fixed order, so one seed gives byte-identical input files. Nothing here
imports tagforge: the files are written in tagforge's documented formats
(JSONL, EMB1, the vocabulary TSV) by this module alone.

The engine corpus is written in three phases, because tag ids only exist
once the program has built the vocabulary from the captions:

1. ``write_captions``: the captions;
2. ``write_prompts``: one prompt embedding per (template, canonical) of the
   vocabulary the program built;
3. ``write_engine_inputs``: regions, region and whole-image embeddings,
   generated tags and the engine config, keyed by the program's tag ids.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from words import ADJECTIVES, NOUNS

# tagforge's packaged templates.txt; build-queries reads that file when no
# --templates is given, so prompts must be keyed by these exact strings
TEMPLATES = (
    "a photo of a {tag}",
    "a photograph of a {tag}",
    "an image of a {tag}",
    "a picture of a {tag}",
    "a close-up photo of a {tag}",
    "a photo of the {tag}",
)


Pair = tuple[str, int]


# -- file writers ---------------------------------------------------------------


def write_jsonl(path: Path, records) -> int:
    lines = [json.dumps(r) for r in records]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return len(lines)


def write_emb1(path: Path, keys, matrix: np.ndarray, normalized: bool = True) -> None:
    """EMB1: magic, u32 count, u32 dim, u8 normalized, then per record u16
    key length, UTF-8 key, dim float32 little-endian."""
    rows = np.ascontiguousarray(matrix, dtype="<f4")
    parts = [b"EMB1", struct.pack("<IIB", len(keys), rows.shape[1], int(normalized))]
    for key, row in zip(keys, rows):
        encoded = key.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(row.tobytes())
    path.write_bytes(b"".join(parts))


def read_vocabulary(path: Path) -> tuple[dict[str, int], list[str]]:
    """(surface -> tag_id, canonical surface per tag_id) from a vocab file."""
    surface_to_id: dict[str, int] = {}
    canonicals: dict[int, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        tag_id, canonical, members = line.split("\t")[:3]
        canonicals[int(tag_id)] = canonical
        for member in members.split("|"):
            surface_to_id[member] = int(tag_id)
    return surface_to_id, [canonicals[i] for i in range(len(canonicals))]


# -- vectors ---------------------------------------------------------------------


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def noise(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Gaussian rows of expected norm 1."""
    return rng.normal(size=(n, dim)) / np.sqrt(dim)


def near(rng: np.random.Generator, directions: np.ndarray, sigma) -> np.ndarray:
    """Unit vectors at noise level sigma around unit directions: the cosine
    to the direction is about 1 / sqrt(1 + sigma**2)."""
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (directions.shape[0],))
    return unit_rows(directions + sigma[:, None] * noise(rng, *directions.shape))


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return w / w.sum()


def plural(noun: str) -> str:
    return noun + "s"


@dataclass
class Truth:
    """Planted (image_id, surface) pairs, resolved to tag ids later."""

    true_pairs: set[tuple[str, str]] = field(default_factory=set)
    false_pairs: set[tuple[str, str]] = field(default_factory=set)

    def resolve(self, surface_to_id: dict[str, int]) -> tuple[set[Pair], set[Pair]]:
        true_ids = {(i, surface_to_id[s]) for i, s in self.true_pairs if s in surface_to_id}
        false_ids = {(i, surface_to_id[s]) for i, s in self.false_pairs if s in surface_to_id}
        return true_ids, false_ids - true_ids


def write_prompts(rng: np.random.Generator, path: Path, canonicals, concept_of) -> None:
    """Six template prompts per canonical, each near the canonical's concept
    vector, so the ensembled label query lands close to the concept."""
    directions = np.repeat(np.asarray([concept_of(c) for c in canonicals]), len(TEMPLATES), axis=0)
    keys = [t + "::" + c for c in canonicals for t in TEMPLATES]
    write_emb1(path, keys, near(rng, directions, 0.3))


class ConceptSpace:
    """A fixed random unit vector per surface, drawn on first use."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self.rng, self.dim = rng, dim
        self.vectors: dict[str, np.ndarray] = {}

    def __call__(self, surface: str) -> np.ndarray:
        v = self.vectors.get(surface)
        if v is None:
            v = unit_rows(self.rng.normal(size=(1, self.dim)))[0]
            self.vectors[surface] = v
        return v


def _write_regions(
    rng: np.random.Generator,
    root: Path,
    pairs: list[tuple[str, int, str]],
    queries: dict[int, np.ndarray],
    dim: int,
) -> int:
    """Region records plus their EMB1 vectors.

    pairs holds (image_id, tag_id, kind). A category's "true" regions fall
    into eight visual modes around the tag's query, one to three regions per
    pair: most score well above the 0.2 default threshold, some sit near it
    (no_prediction) and a few are occluded far below it (contrary, when the
    whole image still matches). A "false" pair gets one region in a random
    direction with a weak pull towards the query, so some of them survive
    the filter.
    """
    tags = sorted({tag_id for _, tag_id, _ in pairs})
    modes = dict(zip(tags, (unit_rows(rng.normal(size=(8, dim))) for _ in tags)))
    records, keys, directions, sigmas = [], [], [], []
    for image_id, tag_id, kind in pairs:
        q = queries[tag_id]
        if kind == "true":
            draw = rng.random()
            count = 1 + int(draw < 0.6) + int(draw < 0.2)
            occluded = rng.random() < 0.04
            for _ in range(count):
                directions.append(q + 1.5 * modes[tag_id][int(rng.integers(8))])
                sigmas.append(4.5 if occluded else rng.uniform(0.3, 2.8))
        else:
            count = 1
            pull = rng.uniform(0.0, 0.2)
            directions.append(pull * q + (1.0 - pull) * unit_rows(rng.normal(size=(1, dim)))[0])
            sigmas.append(0.6)
        for j in range(count):
            region_id = f"{image_id}-t{tag_id}-r{j}"
            keys.append("emb:" + region_id)
            records.append(
                {
                    "image_id": image_id,
                    "region_id": region_id,
                    "tag_id": tag_id,
                    "score": round(float(rng.uniform(0.3, 1.0)), 4),
                    "embedding_key": "emb:" + region_id,
                }
            )
    write_jsonl(root / "regions.jsonl", records)
    write_emb1(root / "regions.emb", keys, near(rng, unit_rows(np.asarray(directions)), sigmas))
    return len(records)


def _write_image_embeddings(
    rng: np.random.Generator, path: Path, images, true_by_image, queries, dim: int
) -> None:
    rows = np.empty((len(images), dim))
    for r, image_id in enumerate(images):
        tags = true_by_image.get(image_id, ())
        rows[r] = sum((queries[t] for t in tags), np.zeros(dim))
    rows += 0.5 * noise(rng, len(images), dim)
    write_emb1(path, images, unit_rows(rows))


def _write_config(root: Path, seed: int, extra: dict[str, str]) -> None:
    values = {
        "captions": "captions.jsonl",
        "regions": "regions.jsonl",
        "region_embeddings": "regions.emb",
        "image_embeddings": "images.emb",
        "seed": str(seed),
        "fraction": "0.10",
        **extra,
    }
    (root / "engine.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8"
    )


# -- engine-clean -------------------------------------------------------------------


class EngineCleanCorpus:
    """Region-heavy engine corpus at 128-d with Zipf-skewed categories.

    Category sizes follow a Zipf law capped at 30% of the images, so a few
    categories hold thousands of regions and the tail falls under
    min_regions. One short caption per image names ~70% of its planted
    objects; a generated-tags file restores the rest and injects false
    pairs (25% of the true count) that carry noisy regions.
    """

    DIM = 128
    CATEGORIES = 150
    ZIPF = 1.3

    def __init__(self, root: Path, seed: int, scale: float = 1.0):
        self.root, self.seed = root, seed
        self.rng = np.random.default_rng([seed, 1])
        self.text = random.Random(int(self.rng.integers(2**62)))
        self.n_images = max(40, int(5000 * scale))
        self.images = [f"img{i:06d}" for i in range(self.n_images)]
        self.truth = Truth()
        self.true_by_image: dict[str, list[str]] = {}
        self.dropped: set[tuple[str, str]] = set()
        self.concepts = ConceptSpace(self.rng, self.DIM)
        self.records = 0

    def write_captions(self) -> None:
        rng = self.rng
        nouns = list(rng.permutation(NOUNS)[: self.CATEGORIES])
        weights = zipf_weights(len(nouns), self.ZIPF)
        # each category gets a fixed number of images, so the clean work
        # (set by category sizes) does not change with the seed
        sizes = np.minimum(np.round(weights * 3 * self.n_images), 0.3 * self.n_images).astype(int)
        objects_of: list[list[str]] = [[] for _ in self.images]
        for noun, size in zip(nouns, sizes):
            for i in rng.choice(self.n_images, size=max(size, 1), replace=False):
                objects_of[i].append(noun)
        lines = []
        for image_id, objects in zip(self.images, objects_of):
            objects = objects or [nouns[0]]
            self.text.shuffle(objects)
            m = len(objects)
            self.true_by_image[image_id] = objects
            self.truth.true_pairs.update((image_id, o) for o in objects)
            keep = rng.random(m) >= 0.3
            keep[int(rng.integers(m))] = True
            self.dropped.update((image_id, o) for o, k in zip(objects, keep) if not k)
            phrases = []
            for o in (o for o, k in zip(objects, keep) if k):
                adj = self.text.choice(ADJECTIVES) + " " if self.text.random() < 0.5 else ""
                phrases.append(f"a {adj}{o}" if self.text.random() < 0.6 else f"two {adj}{plural(o)}")
            lines.append({"image_id": image_id, "caption": " and ".join(phrases), "source": "coco"})
        self.records += write_jsonl(self.root / "captions.jsonl", lines)
        n_false = int(0.25 * len(self.truth.true_pairs))
        while len(self.truth.false_pairs) < n_false:
            image_id = self.images[int(rng.integers(self.n_images))]
            noun = nouns[int(rng.choice(len(nouns), p=weights))]
            if (image_id, noun) not in self.truth.true_pairs:
                self.truth.false_pairs.add((image_id, noun))

    def write_prompts(self, vocab_path: Path) -> None:
        _, canonicals = read_vocabulary(vocab_path)
        write_prompts(self.rng, self.root / "prompts.emb", canonicals, self.concepts)

    def write_engine_inputs(self, vocab_path: Path) -> None:
        rng = self.rng
        surface_to_id, canonicals = read_vocabulary(vocab_path)
        queries = {surface_to_id[c]: self.concepts(c) for c in canonicals}
        true_ids, false_ids = self.truth.resolve(surface_to_id)
        pairs = sorted([(i, t, "true") for i, t in true_ids] + [(i, t, "false") for i, t in false_ids])
        self.records += _write_regions(rng, self.root, pairs, queries, self.DIM)
        generated: dict[str, list[int]] = {}
        for image_id, surface in sorted(self.dropped | self.truth.false_pairs):
            if surface in surface_to_id:
                generated.setdefault(image_id, []).append(surface_to_id[surface])
        self.records += write_jsonl(
            self.root / "generated_tags.jsonl",
            ({"image_id": i, "tag_ids": sorted(set(t))} for i, t in sorted(generated.items())),
        )
        true_tags = {
            i: [surface_to_id[s] for s in objs if s in surface_to_id]
            for i, objs in self.true_by_image.items()
        }
        _write_image_embeddings(rng, self.root / "images.emb", self.images, true_tags, queries, self.DIM)
        _write_config(self.root, self.seed, {"generated_tags": "generated_tags.jsonl"})


# -- tag-eval ---------------------------------------------------------------------


class TagEvalCorpus:
    """Images with 2-6 planted positive tags out of a 300-tag vocabulary.

    Each image embedding is a weighted sum of its tags' concepts plus noise,
    so positive scores overlap the negatives' and the per-tag thresholds
    matter. A held-out split feeds threshold calibration.
    """

    DIM = 64
    TAGS = 300

    def __init__(self, root: Path, seed: int, scale: float = 1.0):
        self.root, self.seed = root, seed
        self.rng = np.random.default_rng([seed, 3])
        self.n_images = max(40, int(3000 * scale))
        self.n_heldout = max(40, int(2000 * scale))
        self.concepts = ConceptSpace(self.rng, self.DIM)
        self.tags: list[str] = []
        self.records = 0

    def write_frequencies(self) -> None:
        """A parse-style frequency table; build-vocab keeps all of it."""
        self.tags = sorted(str(t) for t in self.rng.permutation(NOUNS)[: self.TAGS])
        counts = self.rng.integers(5, 5000, size=self.TAGS)
        rows = sorted(zip(self.tags, counts), key=lambda r: (-r[1], r[0]))
        (self.root / "freq.tsv").write_text("".join(f"{s}\t{c}\n" for s, c in rows), encoding="utf-8")

    def write_prompts(self, vocab_path: Path) -> None:
        _, canonicals = read_vocabulary(vocab_path)
        write_prompts(self.rng, self.root / "prompts.emb", canonicals, self.concepts)

    def _split(self, prefix: str, n: int, surface_to_id: dict[str, int]):
        rng = self.rng
        weights = zipf_weights(self.TAGS, 0.5)
        order = rng.permutation(self.TAGS)
        ids = [f"{prefix}{i:06d}" for i in range(n)]
        positives: dict[str, list[int]] = {}
        rows = np.empty((n, self.DIM))
        for r, image_id in enumerate(ids):
            m = int(rng.integers(2, 7))
            picked = [self.tags[order[i]] for i in rng.choice(self.TAGS, size=m, replace=False, p=weights)]
            positives[image_id] = sorted(surface_to_id[s] for s in picked)
            w = rng.uniform(0.5, 1.0, size=m)
            rows[r] = sum(wi * self.concepts(s) for wi, s in zip(w, picked))
        rows += 0.6 * noise(rng, n, self.DIM)
        return ids, unit_rows(rows), positives

    def write_images(self, vocab_path: Path) -> None:
        surface_to_id, _ = read_vocabulary(vocab_path)
        held_ids, held_rows, self.heldout_positives = self._split("val", self.n_heldout, surface_to_id)
        write_emb1(self.root / "heldout.emb", held_ids, held_rows)
        ids, rows, self.positives = self._split("img", self.n_images, surface_to_id)
        write_emb1(self.root / "images.emb", ids, rows)
        all_ids = sorted(set(surface_to_id.values()))
        records = []
        for image_id in ids:
            pos = self.positives[image_id]
            candidates = [t for t in all_ids if t not in pos]
            negative = sorted(int(t) for t in self.rng.choice(candidates, size=20, replace=False))
            records.append({"image_id": image_id, "positive": pos, "negative": negative})
        self.records = len(ids) + write_jsonl(self.root / "gt.jsonl", records)
