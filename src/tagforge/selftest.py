"""Built-in property suites runnable without pytest (CLI `selftest`)."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import caption_parser as cp
from . import clustering, embedding_store, label_system, metrics
from .config import SELFTEST_SEED
from .rng import derive_seed
from .similarity_tagger import LabelQueryMatrix, ThresholdProfile, tag_image


def _check_lexicons() -> str | None:
    lex = cp.load_lexicons()
    for word in lex.stopwords:
        if cp.lemmatize(word, lex) not in lex.stopwords:
            return f"stopword {word!r} lemmatizes out of the stopword set"
    for word in lex.pos_lexicon:
        once = cp.lemmatize(word, lex)
        if cp.lemmatize(once, lex) != once:
            return f"lemmatize not idempotent on {word!r}"
    return None


def _check_parser_determinism() -> str | None:
    lex = cp.load_lexicons()
    captions = [
        {"image_id": f"i{n}", "caption": "a red traffic light near two dogs running"}
        for n in range(50)
    ]
    a = cp.parse_corpus(captions, lex)
    b = cp.parse_corpus(reversed(captions), lex)
    if a.image_tags != b.image_tags or a.frequencies != b.frequencies:
        return "corpus parse depends on record order"
    return None


def _check_ap(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        scores = rng.choice([0.1, 0.3, 0.5, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        got = metrics.average_precision(scores, labels)
        positives = [i for i in range(n) if labels[i] == 1]
        if not positives:
            if got is not None:
                return "AP of zero positives must be None"
            continue
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        total = 0.0
        for rank, idx in enumerate(order, 1):
            if labels[idx] == 1:
                hits = sum(1 for j in order[:rank] if labels[j] == 1)
                total += hits / rank
        want = total / len(positives)
        if got is None or abs(got - want) > 1e-12:
            return f"AP mismatch: {got} vs {want}"
    return None


def _check_kmeans(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    for trial in range(20):
        points = rng.normal(size=(int(rng.integers(5, 40)), 4))
        k = int(rng.integers(1, 4))
        result = clustering.kmeans(points, k, derive_seed(seed, trial))
        recount = 0.0
        for i, c in enumerate(result.assignment):
            recount += float(((points[i] - result.centroids[c]) ** 2).sum())
        if abs(recount - result.inertia) > 1e-9 * max(1.0, recount):
            return "inertia does not match recomputed sum"
    return None


def _check_embeddings(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    vectors = {f"k{n}": rng.normal(size=8) for n in range(30)}
    table = embedding_store.normalize(embedding_store.EmbeddingTable.from_vectors(vectors))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.emb"
        embedding_store.save_embeddings(table, path)
        again = embedding_store.load_embeddings(path)
    original = table.matrix.astype("<f4")
    if not np.array_equal(original, again.matrix.astype("<f4")):
        return "round trip is not bitwise exact"
    return None


def _check_union_find(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        surfaces = [f"s{i:02d}" for i in range(n)]
        freq = {s: int(rng.integers(1, 50)) for s in surfaces}
        n_pairs = int(rng.integers(0, n))
        pairs = [
            (surfaces[int(rng.integers(n))], surfaces[int(rng.integers(n))])
            for _ in range(n_pairs)
        ]
        vocab = label_system.build_label_system(
            freq, k=n, synonyms=label_system.SynonymLexicon(tuple(pairs))
        )
        adjacency = {s: set() for s in surfaces}
        for a, b in pairs:
            adjacency[a].add(b)
            adjacency[b].add(a)
        for s in surfaces:
            reachable = {s}
            frontier = [s]
            while frontier:
                cur = frontier.pop()
                for nxt in adjacency[cur]:
                    if nxt not in reachable:
                        reachable.add(nxt)
                        frontier.append(nxt)
            for t in surfaces:
                same = vocab.surface_to_id[s] == vocab.surface_to_id[t]
                if same != (t in reachable):
                    return f"grouping disagrees with transitive closure for {s}, {t}"
    return None


def _check_tagger(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        dim, n_tags = 8, 5
        raw = rng.normal(size=(n_tags, dim))
        rows = raw / np.linalg.norm(raw, axis=1)[:, None]
        queries = LabelQueryMatrix("v", tuple(range(n_tags)), tuple(f"t{i}" for i in range(n_tags)), rows)
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        profile = ThresholdProfile(default_threshold=0.1)
        scale = float(rng.uniform(0.1, 10.0))
        scaled = scale * v
        scaled /= np.linalg.norm(scaled)
        if tag_image(v, queries, profile) != tag_image(scaled, queries, profile):
            return "tagging is not invariant under positive scaling"
    return None


def run_all(seed: int = SELFTEST_SEED) -> bool:
    """Run every suite; prints one PASS/FAIL line each, returns overall ok."""
    suites = [
        ("lexicon-consistency", lambda: _check_lexicons()),
        ("parser-determinism", lambda: _check_parser_determinism()),
        ("average-precision-oracle", lambda: _check_ap(seed)),
        ("kmeans-inertia", lambda: _check_kmeans(seed)),
        ("embedding-round-trip", lambda: _check_embeddings(seed)),
        ("union-find-closure", lambda: _check_union_find(seed)),
        ("tagger-scale-invariance", lambda: _check_tagger(seed)),
    ]
    ok = True
    for name, fn in suites:
        failure = fn()
        if failure is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {failure}")
            ok = False
    return ok
