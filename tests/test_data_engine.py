import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tagforge
from tagforge.data_engine import (
    PROV_GENERATED,
    PROV_PARSED,
    REASON_CONTRARY,
    REASON_NO_PREDICTION,
    EngineError,
    EngineStats,
    StageStats,
    TagEntry,
    clean_category,
    cluster_count,
    generate_merge,
    kept_pairs,
    load_audit,
    load_regions,
    load_stats,
    load_tag_id_records,
    prediction_filter,
    replay_audit,
    run_engine,
    RegionRecord,
    write_stats,
)
from tagforge.embedding_store import EmbeddingTable
from tagforge.errors import TagforgeError
from tagforge.similarity_tagger import LabelQueryMatrix, ThresholdProfile

from engine_synth import build_synthetic_corpus


def _store(pairs):
    store = {}
    for image_id, tag_id, provenance in pairs:
        store.setdefault(image_id, {})[tag_id] = TagEntry(provenance)
    return store


# -- generate_merge ------------------------------------------------------------


def test_generate_merge_identity():
    parsed = _store([("i1", 0, PROV_PARSED)])
    merged, audit, rejected = generate_merge(parsed, [], {}, valid_tag_ids={0, 1})
    assert kept_pairs(merged) == {("i1", 0)}
    assert audit == [] and rejected == 0
    assert merged is not parsed


def test_generate_merge_union_with_provenance_priority():
    parsed = _store([("i1", 0, PROV_PARSED)])
    merged, audit, _ = generate_merge(
        parsed, [("i1", [0, 1])], {}, valid_tag_ids={0, 1}
    )
    assert merged["i1"][0].provenance == PROV_PARSED
    assert merged["i1"][1].provenance == PROV_GENERATED
    assert [(e.image_id, e.tag_id, e.action) for e in audit] == [("i1", 1, "added")]


def test_generate_merge_rejects_unknown_tag_records():
    parsed = _store([("i1", 0, PROV_PARSED)])
    merged, audit, rejected = generate_merge(
        parsed, [("i2", [0, 99]), ("i3", [1])], {}, valid_tag_ids={0, 1}
    )
    assert rejected == 1
    assert ("i3", 1) in kept_pairs(merged)
    assert ("i2", 99) not in kept_pairs(merged)
    assert ("i2", 0) not in kept_pairs(merged)  # whole record rejected


def test_generate_merge_counts_non_decreasing():
    rng = np.random.default_rng(0)
    parsed = _store(
        [(f"i{n}", int(t), PROV_PARSED) for n in range(20) for t in rng.integers(0, 5, size=3)]
    )
    before = {img: len(tags) for img, tags in parsed.items()}
    merged, _, _ = generate_merge(
        parsed,
        [(f"i{int(n)}", [int(t)]) for n, t in zip(rng.integers(0, 25, 30), rng.integers(0, 5, 30))],
        {},
        valid_tag_ids=set(range(5)),
    )
    for img, tags in merged.items():
        assert len(tags) >= before.get(img, 0)


# -- clean_category -------------------------------------------------------------


def _region_cloud(rng, tag_id, n_true, n_noise, dim=32):
    """Three tight clusters plus scattered far noise, all unit-normalized."""
    means = np.eye(dim)[:3]
    vectors = {}
    regions = []
    idx = 0
    for i in range(n_true):
        v = means[i % 3] + 0.01 * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        key = f"r{idx:04d}"
        vectors[key] = v
        regions.append(RegionRecord(f"img{idx:04d}", key, tag_id, 0.9, key))
        idx += 1
    noise_keys = []
    for _ in range(n_noise):
        v = rng.normal(size=dim)
        v[:3] = -np.abs(v[:3])  # push away from all three cluster means
        v /= np.linalg.norm(v)
        key = f"r{idx:04d}"
        vectors[key] = v
        noise_keys.append(key)
        regions.append(RegionRecord(f"img{idx:04d}", key, tag_id, 0.9, key))
        idx += 1
    table = EmbeddingTable.from_vectors(vectors, normalized=True)
    return regions, table, set(noise_keys)


def test_clean_fraction_zero_removes_nothing():
    rng = np.random.default_rng(1)
    regions, table, _ = _region_cloud(rng, 7, 40, 0)
    result = clean_category(7, regions, table, fraction=0.0, seed=5)
    assert result.outlier_regions == [] and result.removed_pairs == []


def test_clean_marks_exactly_ceil_fraction():
    rng = np.random.default_rng(2)
    regions, table, _ = _region_cloud(rng, 7, 270, 30)
    result = clean_category(7, regions, table, fraction=0.10, seed=5)
    assert result.region_count == 300
    assert len(result.outlier_regions) == 30
    result2 = clean_category(7, regions[:25], table, fraction=0.10, seed=5)
    assert len(result2.outlier_regions) == 3  # ceil(2.5)


def test_clean_planted_outliers_found():
    rng = np.random.default_rng(3)
    regions, table, noise_keys = _region_cloud(rng, 2, 270, 30)
    result = clean_category(2, regions, table, fraction=0.10, seed=11)
    marked = {rid for _, rid in result.outlier_regions}
    assert len(marked) == 30
    assert len(marked & noise_keys) >= 24


def test_clean_min_regions_skip():
    rng = np.random.default_rng(4)
    regions, table, _ = _region_cloud(rng, 7, 12, 0)
    result = clean_category(7, regions, table, fraction=0.10, seed=5, min_regions=20)
    assert result.skipped
    assert result.removed_pairs == []


def test_clean_removal_rule_matches_recount():
    # removal rule: a pair goes only when every one of its regions is marked;
    # verified against an independent recount, with multi-region images mixed in
    rng = np.random.default_rng(8)
    base_regions, table, _ = _region_cloud(rng, 5, 80, 20)
    # collapse regions onto fewer images so images own several regions each
    regions = [
        RegionRecord(f"img{int(i) % 17:02d}", r.region_id, r.tag_id, r.detector_score, r.embedding_key)
        for i, r in enumerate(base_regions)
    ]
    result = clean_category(5, regions, table, fraction=0.15, seed=21)
    marked = set(result.outlier_regions)
    assert len(marked) == int(np.ceil(0.15 * len(regions)))

    by_image: dict[str, list[RegionRecord]] = {}
    for r in regions:
        by_image.setdefault(r.image_id, []).append(r)
    expected_removed = sorted(
        (img, 5)
        for img, members in by_image.items()
        if all((m.image_id, m.region_id) in marked for m in members)
    )
    assert result.removed_pairs == expected_removed
    # at least one image kept a region and survived despite another being marked
    mixed = [
        img
        for img, members in by_image.items()
        if any((m.image_id, m.region_id) in marked for m in members)
        and not all((m.image_id, m.region_id) in marked for m in members)
    ]
    assert mixed, "fixture should produce partially-marked images"
    assert all((img, 5) not in result.removed_pairs for img in mixed)


def test_clean_cluster_scope_marks_within_each_cluster():
    rng = np.random.default_rng(9)
    regions, table, _ = _region_cloud(rng, 4, 120, 0)  # three tight clusters, no noise
    result = clean_category(
        4, regions, table, fraction=0.10, seed=13, outlier_scope="cluster"
    )
    assert not result.skipped
    # every cluster contributes its own ceil(fraction * size), so the total
    # can exceed the category-pooled ceil but stays close to it
    assert len(result.outlier_regions) >= int(np.ceil(0.10 * 120))
    assert len(result.outlier_regions) <= int(np.ceil(0.10 * 120)) + result.k
    with pytest.raises(ValueError, match="scope"):
        clean_category(4, regions, table, fraction=0.1, seed=13, outlier_scope="bogus")


def test_clean_unresolvable_key_errors():
    regions = [RegionRecord(f"i{n}", f"r{n}", 1, 0.5, f"missing{n}") for n in range(25)]
    table = EmbeddingTable.from_vectors({"other": np.ones(4)})
    with pytest.raises(EngineError, match="unresolvable"):
        clean_category(1, regions, table, fraction=0.1, seed=0)


def test_clean_deterministic_and_order_independent():
    rng = np.random.default_rng(6)
    regions, table, _ = _region_cloud(rng, 3, 90, 10)
    a = clean_category(3, regions, table, fraction=0.1, seed=42)
    b = clean_category(3, list(reversed(regions)), table, fraction=0.1, seed=42)
    assert a.outlier_regions == b.outlier_regions
    assert a.removed_pairs == b.removed_pairs


def test_cluster_count_heuristic():
    assert cluster_count(2) == 1
    assert cluster_count(8) == 2
    assert cluster_count(50) == 5
    assert cluster_count(300) == 8  # clamped


# -- prediction_filter -----------------------------------------------------------


def _queries(dim=8, n_tags=3):
    rows = np.eye(dim)[:n_tags]
    return LabelQueryMatrix("v", tuple(range(n_tags)), tuple(f"t{i}" for i in range(n_tags)), rows)


def test_filter_keeps_pair_with_matching_region():
    queries = _queries()
    store = _store([("i1", 0, PROV_PARSED)])
    regions = [RegionRecord("i1", "r0", 0, 0.9, "r0")]
    table = EmbeddingTable.from_vectors({"r0": queries.matrix[0]}, normalized=True)
    result = prediction_filter(store, regions, table, None, queries, ThresholdProfile(0.9))
    assert result.removals == []


def test_filter_removes_no_prediction():
    queries = _queries()
    store = _store([("i1", 0, PROV_PARSED)])
    orth = np.eye(8)[7]
    regions = [RegionRecord("i1", "r0", 0, 0.9, "r0")]
    table = EmbeddingTable.from_vectors({"r0": orth}, normalized=True)
    result = prediction_filter(store, regions, table, None, queries, ThresholdProfile(0.2))
    assert result.removals == [("i1", 0, REASON_NO_PREDICTION)]


def test_filter_contrary_needs_whole_image_hit():
    queries = _queries()
    store = _store([("i1", 0, PROV_PARSED), ("i2", 0, PROV_PARSED)])
    orth = np.eye(8)[7]
    regions = [
        RegionRecord("i1", "r0", 0, 0.9, "r0"),
        RegionRecord("i2", "r1", 0, 0.9, "r1"),
    ]
    table = EmbeddingTable.from_vectors({"r0": orth, "r1": orth}, normalized=True)
    whole = EmbeddingTable.from_vectors(
        {"i1": queries.matrix[0], "i2": orth}, normalized=True
    )
    result = prediction_filter(
        store, regions, table, whole, queries, ThresholdProfile(0.2), margin=0.05
    )
    reasons = {(img, tid): reason for img, tid, reason in result.removals}
    assert reasons[("i1", 0)] == REASON_CONTRARY  # whole image agrees, regions do not
    assert reasons[("i2", 0)] == REASON_NO_PREDICTION


def test_filter_margin_boundary_is_no_prediction():
    queries = _queries()
    store = _store([("i1", 0, PROV_PARSED)])
    # region score 0.18: below threshold 0.2 but above threshold - margin = 0.15
    v = 0.18 * queries.matrix[0] + np.sqrt(1 - 0.18**2) * np.eye(8)[7]
    regions = [RegionRecord("i1", "r0", 0, 0.9, "r0")]
    table = EmbeddingTable.from_vectors({"r0": v}, normalized=True)
    whole = EmbeddingTable.from_vectors({"i1": queries.matrix[0]}, normalized=True)
    result = prediction_filter(
        store, regions, table, whole, queries, ThresholdProfile(0.2), margin=0.05
    )
    assert result.removals == [("i1", 0, REASON_NO_PREDICTION)]


def test_filter_pairs_without_regions_untouched():
    queries = _queries()
    store = _store([("i1", 0, PROV_PARSED), ("i1", 1, PROV_PARSED)])
    regions = []
    table = EmbeddingTable.from_vectors({"unused": np.eye(8)[0]}, normalized=True)
    result = prediction_filter(store, regions, table, None, queries, ThresholdProfile(0.99))
    assert result.removals == []


def test_filter_missing_embedding_skips_and_reports():
    queries = _queries()
    store = _store([("i1", 0, PROV_PARSED)])
    regions = [RegionRecord("i1", "r0", 0, 0.9, "not-there")]
    table = EmbeddingTable.from_vectors({"other": np.eye(8)[0]}, normalized=True)
    result = prediction_filter(store, regions, table, None, queries, ThresholdProfile(0.2))
    assert result.removals == []
    assert len(result.skipped_pairs) == 1


def test_filter_whitelist_restricts():
    queries = _queries()
    store = _store([("i1", 0, PROV_PARSED), ("i1", 1, PROV_PARSED)])
    orth = np.eye(8)[7]
    regions = [
        RegionRecord("i1", "r0", 0, 0.9, "r0"),
        RegionRecord("i1", "r1", 1, 0.9, "r1"),
    ]
    table = EmbeddingTable.from_vectors({"r0": orth, "r1": orth}, normalized=True)
    result = prediction_filter(
        store, regions, table, None, queries, ThresholdProfile(0.2), whitelist={1}
    )
    assert result.removals == [("i1", 1, REASON_NO_PREDICTION)]


# -- stats and audit --------------------------------------------------------------


def test_stats_conservation_checked():
    stats = EngineStats(
        rows=[
            StageStats("parse", 10, 100, added=100),
            StageStats("generate", 10, 130, added=30),
            StageStats("clean", 10, 120, removed={"outlier": 10}),
        ]
    )
    stats.validate_conservation()
    stats.rows.append(StageStats("filter", 10, 119, removed={"no_prediction": 2}))
    with pytest.raises(EngineError, match="conservation"):
        stats.validate_conservation()


def test_stats_round_trip(tmp_path):
    stats = EngineStats(
        rows=[
            StageStats("parse", 10, 100, added=100),
            StageStats("generate", 12, 130, added=30),
            StageStats("clean", 12, 121, removed={"outlier": 9}),
            StageStats("filter", 12, 117, removed={"no_prediction": 3, "contrary": 1}),
        ]
    )
    path = tmp_path / "stats.tsv"
    write_stats(stats, path)
    loaded = load_stats(path)
    assert loaded == stats


def test_load_regions_validates(tmp_path):
    path = tmp_path / "regions.jsonl"
    path.write_text('{"image_id": "i", "region_id": "r", "tag_id": 1, "score": 1.5, "embedding_key": "k"}\n')
    with pytest.raises(Exception, match="score"):
        load_regions(path)


def test_tag_ids_must_be_a_list(tmp_path):
    path = tmp_path / "tags.jsonl"
    path.write_text('{"image_id": "a", "tag_ids": [1, 2]}\n{"image_id": "b", "tag_ids": "12"}\n')
    with pytest.raises(TagforgeError, match=r"tags\.jsonl:2: malformed tag-id record$"):
        load_tag_id_records(path)
    path.write_text('{"image_id": "a", "tag_ids": [1, 2]}\n{"image_id": "b", "tag_ids": []}\n')
    assert load_tag_id_records(path) == [("a", [1, 2]), ("b", [])]


# -- full engine -------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("engine_small")
    return build_synthetic_corpus(root, n_images=150, seed=97)


def test_run_engine_end_to_end(small_corpus):
    result = run_engine(small_corpus.config)
    result.stats.validate_conservation()

    final = kept_pairs(result.final)
    parsed = kept_pairs(result.parsed)
    truth = small_corpus.truth

    assert parsed == small_corpus.parsed_expected
    # generation recovers the dropped tags, cleaning removes the injected ones
    recall_parsed = len(parsed & truth) / len(truth)
    recall_final = len(final & truth) / len(truth)
    precision_final = len(final & truth) / len(final)
    assert recall_final > recall_parsed + 0.2
    assert precision_final > 0.95
    assert not (final & small_corpus.injected)

    # audit replay reproduces the final set exactly
    assert replay_audit(result.parsed, result.audit) == final


def test_run_engine_outputs_deterministic(small_corpus, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config_a = small_corpus.config
    import dataclasses

    result_a = run_engine(dataclasses.replace(config_a, out_dir=out_a))
    result_b = run_engine(dataclasses.replace(config_a, out_dir=out_b))
    for name in ("parsed.jsonl", "final.jsonl", "audit.jsonl", "stats.tsv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert result_a.stats == result_b.stats


def test_run_engine_audit_files_round_trip(small_corpus, tmp_path):
    import dataclasses

    out = tmp_path / "out"
    result = run_engine(dataclasses.replace(small_corpus.config, out_dir=out))
    events = load_audit(out / "audit.jsonl")
    assert len(events) == len(result.audit)
    loaded_stats = load_stats(out / "stats.tsv")
    assert loaded_stats == result.stats


def test_run_engine_stage_error_names_stage(small_corpus, tmp_path):
    import dataclasses

    for workers in (1, 2):
        bad = dataclasses.replace(
            small_corpus.config,
            regions=small_corpus.config.captions,  # captions are not region records
            out_dir=tmp_path / "bad",
            workers=workers,
        )
        with pytest.raises(EngineError) as exc:
            run_engine(bad)
        assert exc.value.stage == "clean"
        assert exc.value.partial_stats is not None
        assert [r.stage for r in exc.value.partial_stats.rows] == ["parse", "generate"]


def _bad_captions(small_corpus, tmp_path):
    captions = tmp_path / "captions.jsonl"
    captions.write_bytes(small_corpus.config.captions.read_bytes() + b'{"image_id": "\xff"}\n')
    return captions


def test_run_engine_parse_error_stops_the_clean_helpers(small_corpus, tmp_path):
    import dataclasses
    import multiprocessing

    config = dataclasses.replace(
        small_corpus.config, captions=_bad_captions(small_corpus, tmp_path),
        out_dir=tmp_path / "out", workers=2,
    )
    with pytest.raises(EngineError, match="invalid UTF-8") as exc:
        run_engine(config)
    assert exc.value.stage == "parse" and exc.value.partial_stats.rows == []
    assert multiprocessing.active_children() == []


def test_run_engine_splits_the_captions_over_its_workers(small_corpus, tmp_path, monkeypatch):
    # the clean helpers may be done long before a large caption file is
    import dataclasses

    from tagforge import caption_parser

    calls = []
    run_tasks = caption_parser.run_tasks

    def recording(fn, tasks, shared, workers):
        calls.append((len(tasks), workers))
        return run_tasks(fn, tasks, shared, workers)

    monkeypatch.setattr(caption_parser, "run_tasks", recording)
    config = dataclasses.replace(small_corpus.config, out_dir=tmp_path / "out", workers=2)
    run_engine(config)
    assert calls == [(2, 2)]


def test_run_engine_reports_a_parse_error_before_a_clean_input_error(small_corpus, tmp_path):
    import dataclasses
    import multiprocessing

    for workers in (1, 2):
        config = dataclasses.replace(
            small_corpus.config, captions=_bad_captions(small_corpus, tmp_path),
            regions=small_corpus.config.captions, out_dir=tmp_path / "out", workers=workers,
        )
        with pytest.raises(EngineError, match="invalid UTF-8") as exc:
            run_engine(config)
        assert exc.value.stage == "parse", workers
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_run_engine_leaves_little_for_the_cyclic_collector(small_corpus, tmp_path, workers):
    # the CLI runs commands with the collector off; what a run leaves in
    # cycles then stays until the process exits
    import dataclasses
    import gc

    config = dataclasses.replace(small_corpus.config, out_dir=tmp_path / "out", workers=workers)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_engine(config)
        unreachable = gc.collect()
    finally:
        if collecting:
            gc.enable()
    assert result.stats.rows and unreachable < 100


def test_run_engine_filter_error_names_stage(small_corpus, tmp_path):
    import dataclasses

    bad = dataclasses.replace(
        small_corpus.config,
        queries=small_corpus.config.captions,  # captions are not a label-query file
        out_dir=tmp_path / "bad",
    )
    with pytest.raises(EngineError, match="sidecar") as exc:
        run_engine(bad)
    assert exc.value.stage == "filter"
    assert [r.stage for r in exc.value.partial_stats.rows] == ["parse", "generate", "clean"]
    assert not (tmp_path / "bad").exists()


def test_run_engine_refuses_an_audit_that_does_not_replay_to_final(
    small_corpus, tmp_path, monkeypatch
):
    import dataclasses

    from tagforge import data_engine

    filter_stage = data_engine.filter_stage

    def drop_first_event(*args, **kwargs):
        events, counts, skipped = filter_stage(*args, **kwargs)
        assert events
        return events[1:], counts, skipped  # the counts still balance

    monkeypatch.setattr(data_engine, "filter_stage", drop_first_event)
    out = tmp_path / "out"
    with pytest.raises(EngineError, match="replaying the audit") as exc:
        run_engine(dataclasses.replace(small_corpus.config, out_dir=out))
    assert exc.value.stage == "audit"
    assert [r.stage for r in exc.value.partial_stats.rows] == [
        "parse", "generate", "clean", "filter",
    ]
    assert not out.exists()


def test_run_engine_clean_worker_error_names_stage(small_corpus, tmp_path):
    # a region whose embedding key is missing fails inside a clean worker;
    # the error must survive pickling, or the pool could never report it
    import dataclasses

    error = pickle.loads(pickle.dumps(EngineError("clean", "boom")))
    assert (error.stage, str(error)) == ("clean", "engine stage 'clean' failed: boom")

    regions = tmp_path / "regions.jsonl"
    lines = small_corpus.config.regions.read_text().splitlines()
    record = json.loads(lines[0])
    record["embedding_key"] = "no-such-key"
    regions.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    for workers in (1, 2):
        config = dataclasses.replace(
            small_corpus.config, regions=regions, out_dir=tmp_path / "out", workers=workers
        )
        with pytest.raises(EngineError, match="no-such-key") as exc:
            run_engine(config)
        assert exc.value.stage == "clean"
        assert [r.stage for r in exc.value.partial_stats.rows] == ["parse", "generate"]


# sha256 of the engine outputs on the small corpus, as written before the
# clean kernels were optimized and categories spread over workers
ENGINE_GOLDEN_SHA256 = {
    "category": {
        "parsed.jsonl": "6677e0bde1f1dc586f53819b17f4b6f1a28adde24d79c4ad8d9c5ec9e51f8ffb",
        "final.jsonl": "d66050939389346d29c0641268f94ac4a181854e475ba47c12a2ab758d84d061",
        "audit.jsonl": "3c3e97a8eae853a64b045fa659b7bfa7e6ad022e19a523fa5ed103f744196896",
        "stats.tsv": "966e98f9e2362688b348f302240186b2f5f94a5f668b84d749f70623b4d2da45",
    },
    "cluster": {
        "parsed.jsonl": "6677e0bde1f1dc586f53819b17f4b6f1a28adde24d79c4ad8d9c5ec9e51f8ffb",
        "final.jsonl": "97ce986bf13ee638a577478f0238f0b133b3dd0b08a5de69c7355e661cb77d73",
        "audit.jsonl": "205d31019dbfc29c7c1e635b8043178c2ce0519e520d91935c0b110e003d1f76",
        "stats.tsv": "be1d9ae93f7efee19a3725f759b74b9b53fb9162756875ba1805a548e94543a3",
    },
    "whitelist": {
        "parsed.jsonl": "6677e0bde1f1dc586f53819b17f4b6f1a28adde24d79c4ad8d9c5ec9e51f8ffb",
        "final.jsonl": "bae2b8ace34facb81455347987b4f800a59876bb05a0b780e4e0826086f10723",
        "audit.jsonl": "4e15063a3502fae955152da52cbf6d0e4a51fbfc2b73af8594cce1cdcc389662",
        "stats.tsv": "40207ac4d43487336fcbdbcbfcbf27488944b09f32c6396704b664db0c04d49d",
    },
}


@pytest.mark.parametrize("variant", sorted(ENGINE_GOLDEN_SHA256))
def test_run_engine_worker_counts_byte_identical_to_golden(small_corpus, tmp_path, variant):
    import dataclasses

    even = tmp_path / "even_whitelist.txt"
    even.write_text("".join(f"{t}\n" for t in small_corpus.vocab.tag_ids() if t % 2 == 0))
    changes = {
        "category": dict(whitelist=None),
        "cluster": dict(whitelist=None, outlier_scope="cluster"),
        "whitelist": dict(whitelist=even),
    }[variant]
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        run_engine(
            dataclasses.replace(small_corpus.config, out_dir=out, workers=workers, **changes)
        )
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ENGINE_GOLDEN_SHA256[variant]
        }
        assert digests == ENGINE_GOLDEN_SHA256[variant], f"workers={workers}"


# sets the start method before tagforge runs, so the CLI needs no flag for it
_CLI_UNDER_START_METHOD = (
    "import multiprocessing, sys\n"
    "multiprocessing.set_start_method(sys.argv[1])\n"
    "from tagforge.cli import main\n"
    "main(sys.argv[2:])\n"
)


def test_outputs_identical_across_start_methods_and_blas_threads(small_corpus, tmp_path):
    """`engine run --workers 2` writes the golden bytes under every start
    method at 1 and 2 BLAS threads, and `tag` writes the same bytes at both."""
    cfg = small_corpus.config
    config_file = tmp_path / "engine.cfg"
    config_file.write_text(
        f"captions = {cfg.captions}\nvocab = {cfg.vocab}\nregions = {cfg.regions}\n"
        f"region_embeddings = {cfg.region_embeddings}\nqueries = {cfg.queries}\n"
        f"image_embeddings = {cfg.image_embeddings}\ngenerated_tags = {cfg.generated_tags[0]}\n"
        f"seed = {cfg.seed}\n"
    )
    source = str(Path(tagforge.__file__).parents[1])
    path = os.pathsep.join(p for p in (source, os.environ.get("PYTHONPATH")) if p)

    def run(threads, *argv):
        env = dict(
            os.environ, PYTHONPATH=path, OMP_NUM_THREADS=str(threads),
            OPENBLAS_NUM_THREADS=str(threads),
        )
        result = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, (argv, threads, result.stderr)

    for method in ("fork", "spawn", "forkserver"):
        for threads in (1, 2):
            out = tmp_path / f"{method}-{threads}"
            run(
                threads, "-c", _CLI_UNDER_START_METHOD, method,
                "engine", "run", "--config", str(config_file), "--workers", "2",
                "--out-dir", str(out),
            )
            digests = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ENGINE_GOLDEN_SHA256["category"]
            }
            assert digests == ENGINE_GOLDEN_SHA256["category"], (method, threads)

    written = []
    for threads in (1, 2):
        predictions = tmp_path / f"predictions-{threads}.jsonl"
        run(
            threads, "-m", "tagforge.cli", "tag", "--embeddings", str(cfg.image_embeddings),
            "--queries", str(cfg.queries), "--vocab", str(cfg.vocab), "--out", str(predictions),
        )
        scores = predictions.with_name(predictions.name + ".scores")
        written.append((predictions.read_bytes(), scores.read_bytes()))
    assert written[0] == written[1]


def test_run_engine_empty_whitelist_cleans_nothing(small_corpus, tmp_path):
    import dataclasses

    empty = tmp_path / "empty_whitelist.txt"
    empty.write_text("")
    config = dataclasses.replace(
        small_corpus.config, whitelist=empty, out_dir=tmp_path / "out"
    )
    result = run_engine(config)
    clean_row = next(r for r in result.stats.rows if r.stage == "clean")
    filter_row = next(r for r in result.stats.rows if r.stage == "filter")
    generate_row = next(r for r in result.stats.rows if r.stage == "generate")
    assert clean_row.removed_total == 0
    assert filter_row.removed_total == 0
    assert filter_row.tags == generate_row.tags
