import multiprocessing
import os
import time

import numpy as np
import pytest

from tagforge.caption_parser import parse_corpus_file
from tagforge.data_engine import EngineError, Regions, finish_clean, start_clean
from tagforge.embedding_store import EmbeddingTable
from tagforge.pool import run_tasks

from engine_synth import Region, clean_regions, removed_pairs


def _scaled(factor, task):
    return factor * task


def test_run_tasks_in_process_keeps_task_order():
    assert list(run_tasks(_scaled, [3, 1, 2], 10, workers=1)) == [30, 10, 20]
    assert list(run_tasks(_scaled, [], 10, workers=4)) == []


def test_run_tasks_pool_returns_every_result():
    assert sorted(run_tasks(_scaled, list(range(7)), 3, workers=2)) == [3 * t for t in range(7)]
    # more workers than cores share one task counter; a lost update would
    # run a task twice or skip one
    assert sorted(run_tasks(_scaled, list(range(500)), 1, workers=4)) == list(range(500))
    assert multiprocessing.active_children() == []


# forty 25 ms tasks: a helper process starts long before the caller alone
# could run them all, under any start method
NAPS = list(range(40))


def _pid_after_a_nap(_, task):
    time.sleep(0.025)
    return task, os.getpid()


def test_run_tasks_starts_its_helpers_at_once_and_the_caller_takes_tasks_too():
    results = run_tasks(_pid_after_a_nap, NAPS, None, workers=2)
    assert len(multiprocessing.active_children()) == 1  # before the first next()
    done = list(results)
    assert sorted(task for task, _ in done) == NAPS
    pids = {pid for _, pid in done}
    assert os.getpid() in pids and len(pids) == 2
    assert multiprocessing.active_children() == []


def test_closing_or_dropping_the_iterator_stops_the_helpers():
    results = run_tasks(_pid_after_a_nap, NAPS, None, workers=2)
    next(results)
    results.close()
    assert multiprocessing.active_children() == []
    results = run_tasks(_pid_after_a_nap, NAPS, None, workers=2)
    del results
    assert multiprocessing.active_children() == []


def test_one_worker_runs_nothing_until_iterated():
    calls = []
    results = run_tasks(lambda shared, task: calls.append(task), [1, 2], None, workers=1)
    assert calls == []
    list(results)
    assert calls == [1, 2]


def _fail_on(side, task):
    # the caller's pid and the side whose tasks raise
    caller_pid, where = side
    time.sleep(0.025)
    in_caller = os.getpid() == caller_pid
    if in_caller == (where == "caller"):
        raise ValueError(f"task {task} failed in the {where}")
    return task


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_an_error_in_the_caller_or_a_helper_reaches_the_caller(where):
    with pytest.raises(ValueError, match=f"failed in the {where}"):
        list(run_tasks(_fail_on, NAPS, (os.getpid(), where), workers=2))
    assert multiprocessing.active_children() == []


def clean_stage(records, table, whitelist, **params):
    regions = Regions.of(records).resolve(table)
    return finish_clean(start_clean(regions, table, whitelist, **params))


def _categories(sizes, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    regions, vectors = [], {}
    for tag_id, n in sizes.items():
        for i in range(n):
            key = f"t{tag_id}-r{i}"
            vectors[key] = rng.normal(size=dim)
            regions.append(Region(f"img{i}", key, tag_id, key))
    return regions, EmbeddingTable.from_vectors(vectors)


def test_one_worker_or_one_task_starts_no_pool(tmp_path, lexicons, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    one_line = tmp_path / "one.jsonl"
    one_line.write_text('{"image_id": "a", "caption": "a dog on the beach"}\n')
    for workers in (1, 2):
        assert set(parse_corpus_file(one_line, lexicons, workers=workers).image_tags) == {"a"}

    regions, table = _categories({1: 30, 2: 25})
    removed = {}
    for t in (1, 2):
        records = [r for r in regions if r.tag_id == t]
        removed[t] = removed_pairs(clean_regions(t, records, table, 0.2, 5)[0], records)
    assert removed[1] and removed[2]
    single = [r for r in regions if r.tag_id == 2]
    for records, workers, want in ((regions, 1, removed[1] + removed[2]), (single, 2, removed[2])):
        image, tag = clean_stage(records, table, None, workers=workers, fraction=0.2, seed=5)
        image_ids = sorted({r.image_id for r in records})  # the regions' image table
        assert [(image_ids[i], t) for i, t in zip(image.tolist(), tag.tolist())] == want


@pytest.mark.parametrize("workers", [1, 2])
def test_clean_stage_names_the_largest_failing_category_first(workers):
    # the keys are checked in this process before any task starts, so every
    # worker count names the same category
    regions, table = _categories({1: 25, 2: 30, 3: 40})
    broken = [r._replace(embedding_key="missing") if r.tag_id != 3 else r for r in regions]
    with pytest.raises(EngineError, match="category 2: unresolvable"):
        clean_stage(broken, table, None, workers=workers, fraction=0.1, seed=0)
    assert multiprocessing.active_children() == []
