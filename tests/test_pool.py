import multiprocessing

import numpy as np
import pytest

from tagforge.caption_parser import parse_corpus_file
from tagforge.data_engine import EngineError, RegionRecord, clean_category, clean_stage
from tagforge.embedding_store import EmbeddingTable
from tagforge.pool import run_tasks


def _scaled(factor, task):
    return factor * task


def test_run_tasks_in_process_keeps_task_order():
    assert list(run_tasks(_scaled, [3, 1, 2], 10, workers=1)) == [30, 10, 20]
    assert list(run_tasks(_scaled, [], 10, workers=4)) == []


def test_run_tasks_pool_returns_every_result():
    assert sorted(run_tasks(_scaled, list(range(7)), 3, workers=2)) == [3 * t for t in range(7)]


def _categories(sizes, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    regions, vectors = [], {}
    for tag_id, n in sizes.items():
        for i in range(n):
            key = f"t{tag_id}-r{i}"
            vectors[key] = rng.normal(size=dim)
            regions.append(RegionRecord(f"img{i}", key, tag_id, 0.9, key))
    return regions, EmbeddingTable.from_vectors(vectors)


def test_one_worker_or_one_task_starts_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    one_line = tmp_path / "one.jsonl"
    one_line.write_text('{"image_id": "a", "caption": "a dog on the beach"}\n')
    for workers in (1, 2):
        assert set(parse_corpus_file(one_line, workers=workers).image_tags) == {"a"}

    regions, table = _categories({1: 30, 2: 25})
    removed = {
        t: clean_category(t, [r for r in regions if r.tag_id == t], table, 0.2, 5).removed_pairs
        for t in (1, 2)
    }
    assert removed[1] and removed[2]
    both = clean_stage(regions, table, None, workers=1, fraction=0.2, seed=5)
    assert [(img, tid) for img, tid, _ in both] == removed[1] + removed[2]
    single = [r for r in regions if r.tag_id == 2]
    one = clean_stage(single, table, None, workers=2, fraction=0.2, seed=5)
    assert [(img, tid) for img, tid, _ in one] == removed[2]


def test_clean_stage_names_the_largest_failing_category_first():
    # categories run largest first, so at one worker the largest one fails first
    regions, table = _categories({1: 25, 2: 30, 3: 40})
    broken = [r._replace(embedding_key="missing") if r.tag_id != 3 else r for r in regions]
    with pytest.raises(EngineError, match="category 2: unresolvable"):
        clean_stage(broken, table, None, workers=1, fraction=0.1, seed=0)
