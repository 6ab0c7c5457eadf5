"""The one-pass EMB1 loader, the batch-decoding region loader and the batched
prediction filter against the per-record loops they replaced, kept here as
references, plus the commands that must start without numpy."""

import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import tagforge
from tagforge.data_engine import (
    PROV_PARSED,
    REASON_CONTRARY,
    REASON_NO_PREDICTION,
    STATE_KEPT,
    STATE_REMOVED_OUTLIER,
    FilterResult,
    RegionRecord,
    TagEntry,
    _row_dots,
    load_regions,
    prediction_filter,
)
from tagforge.embedding_store import EmbeddingFormatError, EmbeddingTable, load_embeddings
from tagforge.errors import TagforgeError
from tagforge.similarity_tagger import LabelQueryMatrix, ThresholdProfile

# -- the per-record references ----------------------------------------------------


def reference_load_embeddings(path):
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != b"EMB1":
        raise EmbeddingFormatError(f"{path}: bad magic at offset 0, expected {b'EMB1'!r}")
    if len(data) < 13:
        raise EmbeddingFormatError(f"{path}: truncated header at offset {len(data)}")
    count, dim = struct.unpack_from("<II", data, 4)
    normalized = data[12] != 0
    if dim < 1:
        raise EmbeddingFormatError(f"{path}: dimension 0 at offset 8")
    offset = 13
    keys = []
    rows = np.empty((count, dim), dtype=np.float64)
    seen = set()
    vec_bytes = dim * 4
    for i in range(count):
        if offset + 2 > len(data):
            raise EmbeddingFormatError(f"{path}: truncated payload at offset {offset}")
        (key_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if offset + key_len > len(data):
            raise EmbeddingFormatError(f"{path}: truncated key at offset {offset}")
        try:
            key = data[offset : offset + key_len].decode("utf-8")
        except UnicodeDecodeError:
            raise EmbeddingFormatError(f"{path}: invalid UTF-8 key at offset {offset}") from None
        offset += key_len
        if key in seen:
            raise EmbeddingFormatError(f"{path}: duplicate key {key!r} at offset {offset}")
        seen.add(key)
        if offset + vec_bytes > len(data):
            raise EmbeddingFormatError(
                f"{path}: truncated vector for key {key!r} at offset {offset}"
            )
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset).astype(np.float64)
        if not np.isfinite(vec).all():
            raise EmbeddingFormatError(
                f"{path}: non-finite value for key {key!r} at offset {offset}"
            )
        rows[i] = vec
        offset += vec_bytes
        keys.append(key)
    if offset != len(data):
        raise EmbeddingFormatError(f"{path}: {len(data) - offset} trailing bytes at offset {offset}")
    try:
        return EmbeddingTable(keys, rows, normalized)
    except EmbeddingFormatError as exc:
        raise EmbeddingFormatError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ReferenceRegionRecord:
    image_id: str
    region_id: str
    tag_id: int
    detector_score: float
    embedding_key: str


def reference_load_regions(path):
    # lines as a text-mode file reads them: U+2028 and the like end no line
    regions = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                record = ReferenceRegionRecord(
                    image_id=str(obj["image_id"]),
                    region_id=str(obj["region_id"]),
                    tag_id=int(obj["tag_id"]),
                    detector_score=float(obj["score"]),
                    embedding_key=str(obj["embedding_key"]),
                )
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
                raise TagforgeError(f"{path}:{lineno}: malformed region record") from None
            if not 0.0 <= record.detector_score <= 1.0:
                raise TagforgeError(f"{path}:{lineno}: detector score outside [0, 1]")
            regions.append(record)
    return regions


def reference_prediction_filter(
    store, regions, region_embeddings, whole_image_embeddings, queries, profile,
    margin=0.05, whitelist=None,
):
    row_of = {tag_id: i for i, tag_id in enumerate(queries.tag_ids)}
    regions_by_pair = {}
    for r in regions:
        regions_by_pair.setdefault((r.image_id, r.tag_id), []).append(r)
    result = FilterResult()
    images_missing_whole = set()
    for image_id in sorted(store):
        for tag_id in sorted(store[image_id]):
            entry = store[image_id][tag_id]
            if entry.state != STATE_KEPT:
                continue
            if whitelist is not None and tag_id not in whitelist:
                continue
            pair_regions = regions_by_pair.get((image_id, tag_id))
            if not pair_regions:
                continue
            if tag_id not in row_of:
                result.skipped_pairs.append((image_id, tag_id, "tag not in label queries"))
                continue
            missing = [
                r.embedding_key for r in pair_regions if r.embedding_key not in region_embeddings
            ]
            if missing:
                result.skipped_pairs.append(
                    (image_id, tag_id, f"missing region embedding {missing[0]!r}")
                )
                continue
            query = queries.matrix[row_of[tag_id]]
            region_scores = [
                float(region_embeddings.vector(r.embedding_key) @ query) for r in pair_regions
            ]
            threshold = profile.effective(tag_id)
            if max(region_scores) >= threshold:
                continue
            reason = REASON_NO_PREDICTION
            if whole_image_embeddings is not None and image_id in whole_image_embeddings:
                whole = float(whole_image_embeddings.vector(image_id) @ query)
                if whole >= threshold and all(s < threshold - margin for s in region_scores):
                    reason = REASON_CONTRARY
            elif whole_image_embeddings is not None:
                images_missing_whole.add(image_id)
            result.removals.append((image_id, tag_id, reason))
    result.images_without_whole_embedding = len(images_missing_whole)
    return result


# -- EMB1 -------------------------------------------------------------------------


def _emb1(records, dim, count=None, normalized=False) -> bytes:
    """EMB1 bytes of (key bytes, float32 vector bytes) records."""
    parts = [b"EMB1", struct.pack("<IIB", len(records) if count is None else count, dim, normalized)]
    for key, vector in records:
        parts += [struct.pack("<H", len(key)), key, vector]
    return b"".join(parts)


def _vec(values) -> bytes:
    return np.asarray(values, dtype="<f4").tobytes()


def _outcome(loader, path):
    try:
        table = loader(path)
    except Exception as exc:  # the error's type and message are the outcome
        return ("error", type(exc).__name__, str(exc))
    return ("table", table.keys, table.matrix.tobytes(), table.matrix.shape, table.normalized)


def _assert_same_load(path):
    got = _outcome(load_embeddings, path)
    assert got == _outcome(reference_load_embeddings, path)
    return got


@pytest.mark.parametrize("seed", range(6))
def test_emb1_matches_reference_on_seeded_files(tmp_path, seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 40))
    keys = ["", "é", "中文", "🙂 region", "k" * 300, "a\x00b"]
    keys += [f"key-{i}-" + "x" * int(rng.integers(0, 12)) for i in range(int(rng.integers(0, 60)))]
    values = rng.standard_normal((len(keys), dim)).astype("<f4")
    values[0, 0] = -0.0
    values[-1, -1] = np.float32(1e-45)  # the smallest float32 subnormal
    values[len(keys) // 2, :] = np.float32(-3e-39)  # a subnormal row
    path = tmp_path / "t.emb"
    path.write_bytes(_emb1([(k.encode(), v.tobytes()) for k, v in zip(keys, values)], dim))
    kind, loaded_keys, matrix_bytes, shape, _ = _assert_same_load(path)
    assert kind == "table" and list(loaded_keys) == keys and shape == (len(keys), dim)
    matrix = np.frombuffer(matrix_bytes).reshape(shape)
    assert np.signbit(matrix[0, 0]) and matrix[0, 0] == 0.0
    assert matrix[-1, -1] == float(np.float32(1e-45))


@pytest.mark.parametrize("dim", [1, 5])
def test_emb1_empty_file_matches_reference(tmp_path, dim):
    path = tmp_path / "empty.emb"
    path.write_bytes(_emb1([], dim))
    assert _assert_same_load(path)[3] == (0, dim)


def test_emb1_normalized_flag_matches_reference(tmp_path):
    unit, off = _vec([0.6, 0.8]), _vec([0.6, 0.9])
    good, bad = tmp_path / "good.emb", tmp_path / "bad.emb"
    good.write_bytes(_emb1([(b"a", unit), (b"b", unit)], 2, normalized=True))
    bad.write_bytes(_emb1([(b"a", unit), (b"b", off)], 2, normalized=True))
    assert _assert_same_load(good)[-1] is True
    assert "has norm" in _assert_same_load(bad)[2]


BAD_EMB1 = {
    "bad magic": b"EMB2" + bytes(9),
    "short magic": b"EM",
    "truncated header": b"EMB1" + struct.pack("<I", 1),
    "dimension 0": _emb1([], 0),
    "truncated payload": _emb1([(b"a", _vec([1, 2]))], 2, count=2),
    "truncated key length": _emb1([(b"a", _vec([1, 2]))], 2, count=2) + b"\x05",
    "truncated key": _emb1([(b"a", _vec([1, 2]))], 2, count=2) + b"\x05\x00ab",
    "invalid UTF-8": _emb1([(b"a", _vec([1, 2])), (b"\xff\xfe", _vec([1, 2]))], 2),
    "duplicate key": _emb1([(b"a", _vec([1, 2])), (b"b", _vec([1, 2])), (b"a", _vec([3, 4]))], 2),
    "truncated vector": _emb1([(b"a", _vec([1, 2])), (b"b", _vec([1]))], 2),
    "nan": _emb1([(b"a", _vec([1, 2])), (b"b", _vec([np.nan, 2]))], 2),
    "inf": _emb1([(b"a", _vec([1, np.inf]))], 2),
    "-inf": _emb1([(b"a", _vec([1, 2])), (b"b", _vec([3, 4])), (b"c", _vec([-np.inf, 4]))], 2),
    "trailing bytes": _emb1([(b"a", _vec([1, 2]))], 2) + b"xyz",
    # two faults: the record-by-record order decides which is named
    "non-finite before truncation": _emb1([(b"a", _vec([np.nan, 2]))], 2, count=3),
    "non-finite before bad UTF-8": _emb1([(b"a", _vec([np.inf, 2])), (b"\xff", _vec([1, 2]))], 2),
    "non-finite before duplicate": _emb1([(b"a", _vec([1, np.nan])), (b"a", _vec([1, 2]))], 2),
    "non-finite before trailing bytes": _emb1([(b"a", _vec([np.nan, 2]))], 2) + b"\x00",
    "duplicate before non-finite": _emb1([(b"a", _vec([1, 2])), (b"a", _vec([np.nan, 2]))], 2),
    "two non-finite rows": _emb1([(b"a", _vec([1, 2])), (b"b", _vec([2, np.inf])),
                                  (b"c", _vec([np.nan, 2]))], 2),
}


@pytest.mark.parametrize("case", sorted(BAD_EMB1))
def test_emb1_errors_match_reference(tmp_path, case):
    path = tmp_path / "bad.emb"
    path.write_bytes(BAD_EMB1[case])
    outcome = _assert_same_load(path)
    assert outcome[:2] == ("error", "EmbeddingFormatError")


def test_emb1_header_claiming_more_records_than_the_file_allocates_nothing(tmp_path):
    path = tmp_path / "huge.emb"
    path.write_bytes(_emb1([], 1000, count=10**6) + struct.pack("<H", 1) + b"a" + _vec([1.0] * 1000))
    tracemalloc.start()
    try:
        with pytest.raises(EmbeddingFormatError, match="truncated payload at offset 4016"):
            load_embeddings(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the header asks for 8 GB of float64; what the loader held stays near the file size
    assert peak < 1 << 20


# -- regions JSONL -----------------------------------------------------------------


def _region_line(rng, i):
    return json.dumps({
        "image_id": f"img{int(rng.integers(0, 40)):03d}",
        "region_id": f"r{i}",
        "tag_id": int(rng.integers(0, 12)),
        "score": round(float(rng.random()), 4),
        "embedding_key": f"emb:{i}",
    })


def _region_outcome(loader, path):
    try:
        records = loader(path)
    except (TagforgeError, OverflowError, RecursionError) as exc:
        return ("error", type(exc).__name__, str(exc))
    # repr tells 1 from 1.0 and True from 1
    return ("records", [
        repr((r.image_id, r.region_id, r.tag_id, r.detector_score, r.embedding_key))
        for r in records
    ])


def _assert_same_regions(path):
    got = _region_outcome(load_regions, path)
    assert got == _region_outcome(reference_load_regions, path)
    return got


@pytest.mark.parametrize("seed", range(4))
def test_load_regions_matches_reference_on_seeded_files(tmp_path, seed):
    rng = np.random.default_rng(seed)
    lines = [_region_line(rng, i) for i in range(int(rng.integers(0, 300)))]
    for i in sorted(rng.integers(0, len(lines) + 1, 5), reverse=True):
        lines.insert(int(i), rng.choice(["", "   ", "\t"]))
    path = tmp_path / "regions.jsonl"
    path.write_text("\n".join(lines) + ("\n" if seed % 2 else ""), encoding="utf-8")
    outcome = _assert_same_regions(path)
    assert outcome[0] == "records"
    records = load_regions(path)
    assert all(type(r) is RegionRecord for r in records)
    assert [r.region_id for r in records] == [json.loads(l)["region_id"] for l in lines if l.strip()]


GOOD = '{"image_id": "i", "region_id": "r", "tag_id": 1, "score": 0.5, "embedding_key": "k"}'
ODD_REGION_FILES = {
    "empty": "",
    "blank lines only": "\n  \n\t\n",
    "padded lines": f"  {GOOD}\t\n\t{GOOD}  \n",
    "loose field types": '{"image_id": 7, "region_id": 1.5, "tag_id": "3", "score": 1, '
                         '"embedding_key": null}\n'
                         '{"image_id": true, "region_id": "r", "tag_id": 2.9, "score": "0.25", '
                         '"embedding_key": "k"}\n',
    "bool tag id and score": '{"image_id": "i", "region_id": "r", "tag_id": true, "score": false, '
                             '"embedding_key": "k"}\n',
    "unicode": '{"image_id": "ünï", "region_id": "中", "tag_id": 0, "score": 0.0, '
               '"embedding_key": "🙂"}\n',
    "brackets in a string": GOOD.replace('"k"', '"k[0]"') + "\n" + GOOD + "\n",
    "extra fields and duplicate keys": GOOD[:-1] + ', "x": {"y": 1}, "score": 0.75}\n',
    "negative zero score": GOOD.replace("0.5", "-0.0") + "\n",
    "line separator inside a string": GOOD.replace('"k"', '"a\u2028b"') + "\n",
}


@pytest.mark.parametrize("case", sorted(ODD_REGION_FILES))
def test_load_regions_odd_files_match_reference(tmp_path, case):
    path = tmp_path / "regions.jsonl"
    path.write_text(ODD_REGION_FILES[case], encoding="utf-8")
    assert _assert_same_regions(path)[0] == "records"


def test_load_regions_keeps_line_separators_inside_strings(tmp_path):
    path = tmp_path / "regions.jsonl"
    path.write_text(ODD_REGION_FILES["line separator inside a string"], encoding="utf-8")
    assert load_regions(path) == [RegionRecord("i", "r", 1, 0.5, "a\u2028b")]


BAD_REGION_FILES = {
    "broken json": f"{GOOD}\n{{broken\n{GOOD}\n",
    "missing field": f"{GOOD}\n" + GOOD.replace('"region_id": "r", ', "") + "\n",
    "not an object": f"{GOOD}\n5\n",
    "a string": f'{GOOD}\n"text"\n',
    "null": "null\n",
    "a list": f"{GOOD}\n[1, 2]\n",
    "bad tag id": GOOD.replace("1,", '"x",') + "\n",
    "infinite tag id": GOOD.replace('"tag_id": 1', '"tag_id": 1e400') + "\n",
    "infinite tag id after a bad score": GOOD.replace("0.5", "2") + "\n"
                                         + GOOD.replace('"tag_id": 1', '"tag_id": 1e400') + "\n",
    "huge integer score": GOOD.replace("0.5", "1" + "0" * 400) + "\n",
    "nan tag id": GOOD.replace('"tag_id": 1', '"tag_id": NaN') + "\n",
    "score above 1": f"{GOOD}\n" + GOOD.replace("0.5", "1.5") + "\n",
    "nan score": GOOD.replace("0.5", "NaN") + "\n",
    "bad score string": GOOD.replace("0.5", '"high"') + "\n",
    "score error after json error": GOOD.replace("0.5", "2") + "\n{\n",
    "json error after score error": "{\n" + GOOD.replace("0.5", "2") + "\n",
    "byte order mark": "\ufeff" + GOOD + "\n",
    "two records on one line": f"{GOOD}, {GOOD}\n",
    # neither line 1 nor 2 is a record alone, though the lines joined with
    # commas would decode to exactly three valid records
    "record split over two lines": f"{GOOD}, {GOOD}\n" + GOOD.replace(", ", "\n", 1) + "\n",
    # lines 1 and 2 share a bracket pair and line 3 holds two records: each
    # wrapped in a one-element array and joined, they decode to three records
    "brackets across lines": GOOD[:-1] + ', "x": [[1\n2]]}\n' + GOOD + "], [" + GOOD + "\n",
    "deep nesting": '{"a": ' * 100000 + "\n",
}


@pytest.mark.parametrize("case", sorted(BAD_REGION_FILES))
def test_load_regions_errors_match_reference(tmp_path, case):
    path = tmp_path / "regions.jsonl"
    path.write_text(BAD_REGION_FILES[case], encoding="utf-8")
    assert _assert_same_regions(path)[0] == "error"


@pytest.mark.parametrize("case", ["deep nesting", "huge integer score", "infinite tag id"])
def test_load_regions_hostile_lines_name_file_and_line(tmp_path, case):
    path = tmp_path / "regions.jsonl"
    path.write_text(BAD_REGION_FILES[case], encoding="utf-8")
    with pytest.raises(TagforgeError, match=f"^{re.escape(str(path))}:1: malformed region record$"):
        load_regions(path)


# -- prediction filter ---------------------------------------------------------------


def _unit_rows(rng, n, dim):
    m = rng.standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1)[:, None]


def _threshold_and_margin_from(score):
    """(threshold, margin) with threshold - margin == score exactly: for
    0 < score <= threshold <= 2 * score both subtractions are exact."""
    threshold = 1.5 * score
    margin = threshold - score
    assert 0 < margin and threshold - margin == score
    return threshold, margin


@pytest.mark.parametrize("seed", range(8))
def test_prediction_filter_matches_reference(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([3, 16, 129]))
    n_tags = 12
    queries = LabelQueryMatrix(
        "v", tuple(range(n_tags - 2)), tuple(f"t{i}" for i in range(n_tags - 2)),
        _unit_rows(rng, n_tags - 2, dim),
    )  # tags 10 and 11 are not in the queries
    images = [f"img{i:03d}" for i in range(60)]
    store, regions, vectors = {}, [], {}
    for image_id in images:
        for tag_id in rng.choice(n_tags, size=int(rng.integers(1, 5)), replace=False):
            tag_id = int(tag_id)
            state = STATE_KEPT if rng.random() < 0.9 else STATE_REMOVED_OUTLIER
            store.setdefault(image_id, {})[tag_id] = TagEntry(PROV_PARSED, state)
            for r in range(int(rng.integers(0, 4))):  # some pairs have no regions
                key = f"{image_id}-{tag_id}-{r}"
                regions.append(RegionRecord(image_id, key, tag_id, 0.9, key))
                if rng.random() < 0.97:  # a few keys are missing from the table
                    vectors[key] = _unit_rows(rng, 1, dim)[0]
    # a kept pair with a missing region, a region of an unannotated pair,
    # and regions listed out of order
    vectors.pop(next(
        r.embedding_key for r in regions
        if r.tag_id < n_tags - 2 and store[r.image_id][r.tag_id].state == STATE_KEPT
    ), None)
    regions.append(RegionRecord("img999", "x", 0, 0.9, regions[0].embedding_key))
    regions = [regions[i] for i in rng.permutation(len(regions))]
    table = EmbeddingTable(list(vectors), np.asarray(list(vectors.values())), normalized=True)

    # best region score of each pair the filter scores
    best, unscored = {}, set()
    for r in regions:
        pair = (r.image_id, r.tag_id)
        entry = store.get(r.image_id, {}).get(r.tag_id)
        if entry is None or entry.state != STATE_KEPT or r.tag_id >= n_tags - 2:
            continue
        if r.embedding_key not in table:
            unscored.add(pair)
            continue
        s = float(table.vector(r.embedding_key) @ queries.matrix[r.tag_id])
        best[pair] = max(best.get(pair, -2.0), s)
    best = {pair: s for pair, s in best.items() if pair not in unscored}
    # tag 0: one pair's best region score is exactly the threshold (kept);
    # tag 1: one pair's best score is exactly threshold - margin while its
    # whole image scores 1 (removed, but not contrary)
    on_tag0 = sorted(s for (_, t), s in best.items() if t == 0)
    (image1, _), score1 = max(((p, s) for p, s in best.items() if p[1] == 1), key=lambda x: x[1])
    threshold1, margin = _threshold_and_margin_from(score1)
    profile = ThresholdProfile(0.1, {0: on_tag0[len(on_tag0) // 2], 1: threshold1, 2: 0.9})

    whole_ids = [i for i in images if i == image1 or rng.random() < 0.8]
    whole_rows = _unit_rows(rng, len(whole_ids), dim)
    whole_rows[: len(whole_ids) // 3] = queries.matrix[0]  # images the check agrees with on tag 0
    whole_rows[whole_ids.index(image1)] = queries.matrix[1]
    whole = EmbeddingTable(whole_ids, whole_rows, normalized=True)

    results = {}
    for whitelist in (None, {0, 1, 3, 5, 10}):
        for whole_table in (None, whole):
            args = (store, regions, table, whole_table, queries, profile)
            kwargs = dict(margin=margin, whitelist=whitelist)
            want = reference_prediction_filter(*args, **kwargs)
            assert prediction_filter(*args, **kwargs) == want
            results[whitelist is None, whole_table is not None] = want
    everything = results[True, True]
    assert (image1, 1, REASON_NO_PREDICTION) in everything.removals
    assert {reason for _, _, reason in everything.removals} == {REASON_NO_PREDICTION, REASON_CONTRARY}
    skips = {why.split(" '")[0] for _, _, why in everything.skipped_pairs}
    assert skips == {"tag not in label queries", "missing region embedding"}
    assert everything.images_without_whole_embedding > 0


@pytest.mark.parametrize("dim", [1, 3, 16, 128, 1000])
def test_row_dots_match_single_products_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    a, b = _unit_rows(rng, 500, dim), rng.standard_normal((40, dim))
    a_rows, b_rows = rng.integers(0, 500, 20000), rng.integers(0, 40, 20000)
    want = np.array([float(a[i] @ b[j]) for i, j in zip(a_rows, b_rows)])
    assert _row_dots(a, a_rows, b, b_rows).tobytes() == want.tobytes()


# -- start-up -------------------------------------------------------------------------

PROBE = """\
import sys
from tagforge.cli import cli
cli.main(args=sys.argv[1:], prog_name="tagforge", standalone_mode=False)
print("modules:", *sorted(sys.modules))
"""


def _modules_loaded_by(argv, watched):
    """Which of watched a fresh process has imported after the command."""
    env = {**os.environ, "PYTHONPATH": str(Path(tagforge.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.splitlines()[-1].split()
    assert modules[0] == "modules:"
    return set(modules) & set(watched)


def test_parse_and_build_vocab_start_without_numpy(tmp_path):
    captions = tmp_path / "captions.jsonl"
    captions.write_text('{"image_id": "a", "caption": "a dog runs on the beach"}\n')
    watched = {"numpy", "multiprocessing", "tagforge.data_engine", "tagforge.embedding_store"}
    parse = ["parse", "--captions", str(captions), "--out-tags", str(tmp_path / "tags.jsonl"),
             "--out-freq", str(tmp_path / "freq.tsv")]
    assert _modules_loaded_by(parse, watched) == set()
    build_vocab = ["build-vocab", "--freq", str(tmp_path / "freq.tsv"), "--k", "5",
                   "--out", str(tmp_path / "vocab.tsv")]
    assert _modules_loaded_by(build_vocab, watched) == set()


def test_eval_starts_without_the_engine(tmp_path):
    pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
    pred.write_text('{"image_id": "a", "scores": {"0": 0.9, "1": 0.2}}\n')
    gt.write_text('{"image_id": "a", "positive": [0], "negative": [1]}\n')
    watched = {"numpy", "multiprocessing", "tagforge.data_engine", "tagforge.clustering"}
    argv = ["eval", "--predictions", str(pred), "--ground-truth", str(gt)]
    assert _modules_loaded_by(argv, watched) == {"numpy"}
