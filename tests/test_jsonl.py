"""The JSON Lines reader behind every JSONL input: its line rule, batching
and errors; the loaders built on it (round trips, `parse` at every worker
count, hostile lines); and a fuzz of every loader."""

import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge import jsonl
from tagforge.caption_parser import parse_corpus_file
from tagforge.cli import cli
from tagforge.data_engine import (
    AuditEvent,
    TagEntry,
    load_annotations,
    load_audit,
    load_regions,
    load_tag_id_records,
    write_annotations,
    write_audit,
)
from tagforge.errors import TagforgeError
from tagforge.label_system import build_label_system, save_vocabulary
from tagforge.metrics import MetricsError, load_eval_instances

# characters str.splitlines() ends a line at, though a JSON string may hold them
SEPARATORS = ("\u2028", "\u2029", "\x85")
ENDINGS = ("\n", "\r\n", "\r")


def _error_at(path, lineno, message):
    return f"^{re.escape(str(path))}:{lineno}: {re.escape(message)}$"


# -- the reader ---------------------------------------------------------------------


def test_lines_end_at_newline_crlf_and_cr_only(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(
        '{"a": "1\u2028x"}\r\n\n{"a": "2\u2029\x85"}\r{"a": 3}\n  \n{"a": 4}'.encode()
    )
    with open(path, encoding="utf-8") as fh:
        assert list(jsonl.decode(fh)) == [
            (1, {"a": "1\u2028x"}), (3, {"a": "2\u2029\x85"}), (4, {"a": 3}), (6, {"a": 4}),
        ]
    got = list(jsonl.read(path, "test", lambda obj: obj["a"]))
    assert got == ["1\u2028x", "2\u2029\x85", 3, 4]


LINES = [
    '{"a": 1}\n', "\n", '{"b": "x]"}\n', '{"a": 2}, {"a": 3}\n', "{broken\n", " \t\n",
    "7\n", '{"c": {"d": null}}\n', '{"e": "\u2028"}\n', '"s"\n', '{"f": 1e999}\n', "[1,\n",
]


@pytest.mark.parametrize("batch", [1, 2, 3, 5, 8192])
def test_batches_decode_as_lines_decoded_one_by_one(monkeypatch, batch):
    monkeypatch.setattr(jsonl, "BATCH_LINES", batch)
    want = []
    for lineno, line in enumerate(LINES, 1):
        if line.strip():
            try:
                want.append((lineno, json.loads(line)))
            except ValueError:
                want.append((lineno, jsonl.INVALID))
    assert list(jsonl.decode(LINES)) == want


def test_each_batch_is_built_before_the_next_is_read(monkeypatch):
    monkeypatch.setattr(jsonl, "BATCH_LINES", 4)
    read = []

    def lines():
        for i in range(10):
            read.append(i)
            yield f'{{"i": {i}}}\n'

    seen = [(value["i"], len(read)) for _, value in jsonl.decode(lines())]
    assert seen == [(i, min(10, (i // 4 + 1) * 4)) for i in range(10)]


def test_read_raises_the_callers_error_at_the_first_bad_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"a": 1}\n\n{"a": "x"}\n{broken\n', encoding="utf-8")
    with pytest.raises(MetricsError, match=_error_at(path, 3, "malformed thing record")):
        list(jsonl.read(path, "thing", lambda obj: int(obj["a"]), MetricsError))
    path.write_text('{"a": 1}\n{broken\n{"a": "x"}\n', encoding="utf-8")
    with pytest.raises(TagforgeError, match=_error_at(path, 2, "malformed thing record")):
        list(jsonl.read(path, "thing", lambda obj: int(obj["a"])))


def test_read_puts_a_record_errors_message_in_place(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"a": 1}\n{"a": -1}\n', encoding="utf-8")

    def positive(obj):
        if obj["a"] < 0:
            raise jsonl.RecordError("negative a")
        return obj["a"]

    with pytest.raises(TagforgeError, match=_error_at(path, 2, "negative a")):
        list(jsonl.read(path, "thing", positive))


# -- invalid UTF-8 ---------------------------------------------------------------------

# a stray byte, truncated sequences, an encoded surrogate and an overlong form
BAD_BYTES = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


@pytest.mark.parametrize("ending", ENDINGS, ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("bad", BAD_BYTES, ids=["stray", "cut-2", "cut-3", "surrogate", "overlong"])
def test_invalid_utf8_names_file_and_line_in_the_callers_error(tmp_path, ending, bad):
    path = tmp_path / "x.jsonl"
    lines = [b'{"a": 1}', b"", '{"a": "café \x85"}'.encode(), b'{"a": "x' + bad + b'"}', b"{"]
    path.write_bytes(ending.encode().join(lines))
    with pytest.raises(MetricsError, match=_error_at(path, 4, "invalid UTF-8")):
        list(jsonl.read(path, "thing", lambda obj: obj["a"], MetricsError))
    path.write_bytes(ending.encode().join(lines[:3]) + ending.encode() + bad)  # at the end
    with pytest.raises(TagforgeError, match=_error_at(path, 4, "invalid UTF-8")):
        list(jsonl.read(path, "thing", lambda obj: obj["a"]))


@pytest.mark.parametrize("ending", ENDINGS, ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("first, second, bad_line", [
    (b"{broken", b'{"a": "\xff"}', "malformed"),  # the file's first bad line is malformed
    (b'{"a": "x"}', b'{"a": "\xff"}', "malformed"),  # a record its build refuses
    (b'{"a": "\xff"}', b"{broken", "invalid UTF-8"),
])
@pytest.mark.parametrize("before", [0, 14998])  # lines ahead of the pair, in one batch
def test_read_names_the_files_first_bad_line_either_way(tmp_path, ending, first, second,
                                                         bad_line, before):
    path = tmp_path / "x.jsonl"
    end = ending.encode()
    path.write_bytes(b'{"a": 1}' + end + (b'{"a": 2}' + end) * before + first + end + second + end)
    message = "malformed thing record" if bad_line == "malformed" else bad_line
    with pytest.raises(MetricsError, match=_error_at(path, before + 2, message)):
        list(jsonl.read(path, "thing", lambda obj: int(obj["a"]), MetricsError))


def test_eval_names_the_first_bad_ground_truth_line(tmp_path):
    predictions, truth = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
    predictions.write_text(json.dumps({"image_id": "a", "scores": {"1": 0.5}, "tags": [1]}) + "\n")
    truth.write_bytes(b'{broken\n{"image_id": "\xff", "positive": [1]}\n')
    result = CliRunner().invoke(cli, [
        "eval", "--predictions", str(predictions), "--ground-truth", str(truth),
    ])
    assert result.exit_code == 1
    assert result.output == f"Error: {truth}:1: malformed ground-truth record\n"


def test_parse_stops_at_the_first_line_that_is_not_utf8_at_every_worker_count(tmp_path):
    # `parse` counts a malformed line as a reject and goes on, so the first
    # bad line that stops it is the first one that is not UTF-8
    captions = tmp_path / "captions.jsonl"
    good = [json.dumps({"image_id": f"i{n}", "caption": "a red dog"}).encode() for n in range(3000)]
    lines = [b"{broken"] + good[:2000] + [b'{"image_id": "x", "caption": "\xff"}', b"{broken"]
    captions.write_bytes(b"\n".join(lines + good[2000:]) + b"\n")
    runner = CliRunner()
    for workers in (1, 2, 3):
        result = runner.invoke(cli, [
            "parse", "--captions", str(captions), "--out-tags", str(tmp_path / "t.jsonl"),
            "--out-freq", str(tmp_path / "f.tsv"), "--workers", str(workers),
        ])
        assert result.exit_code == 1, workers
        assert result.output == f"Error: {captions}:2002: invalid UTF-8\n", workers


def test_invalid_utf8_far_into_a_file_names_its_line(tmp_path):
    path = tmp_path / "x.jsonl"

    def write(record):
        good = json.dumps(record).encode() + b"\n"
        bad = good.replace(b'"image_id": "', b'"image_id": "\xff', 1)
        path.write_bytes(good * 15000 + bad + good * 5000)

    for loader, record in zip(ENGINE_LOADERS, GOOD_RECORDS):
        write(record)
        with pytest.raises(TagforgeError, match=_error_at(path, 15001, "invalid UTF-8")):
            loader(path)
    for record, args in ((GOOD_RECORDS[4], (path, path.with_name("gt.jsonl"))),
                         (GOOD_RECORDS[5], (path.with_name("pred.jsonl"), path))):
        path.with_name("pred.jsonl").write_text(json.dumps(GOOD_RECORDS[4]) + "\n")
        path.with_name("gt.jsonl").write_text(json.dumps(GOOD_RECORDS[5]) + "\n")
        write(record)
        with pytest.raises(MetricsError, match=_error_at(path, 15001, "invalid UTF-8")):
            load_eval_instances(*args)


def test_eval_names_the_line_of_a_stray_byte(tmp_path):
    predictions, truth = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
    line = json.dumps({"image_id": "a", "scores": {"1": 0.5}, "tags": [1]}) + "\n"
    text = (line * (2100 // len(line) + 1)).encode()
    predictions.write_bytes(text[:2000] + b"\xff" + text[2000:])
    truth.write_text('{"image_id": "a", "positive": [1], "negative": []}\n')
    result = CliRunner().invoke(cli, [
        "eval", "--predictions", str(predictions), "--ground-truth", str(truth),
    ])
    assert result.exit_code == 1
    assert f"Error: {predictions}:{2000 // len(line) + 1}: invalid UTF-8" in result.output
    assert "codec" not in result.output


def test_parse_names_the_first_invalid_line_at_every_worker_count(tmp_path):
    captions = tmp_path / "captions.jsonl"
    lines = [json.dumps({"image_id": f"i{n}", "caption": "a red dog"}).encode() for n in range(3000)]
    lines[1700] = lines[1700].replace(b"red", b"r\xe9d")  # Latin-1, not UTF-8
    lines[2900] = lines[2900].replace(b"dog", b"d\xffg")
    captions.write_bytes(b"\r\n".join(lines) + b"\r\n")
    runner = CliRunner()
    for workers in (1, 2, 3):
        result = runner.invoke(cli, [
            "parse", "--captions", str(captions), "--out-tags", str(tmp_path / "t.jsonl"),
            "--out-freq", str(tmp_path / "f.tsv"), "--workers", str(workers),
        ])
        assert result.exit_code == 1, workers
        assert result.output == f"Error: {captions}:1701: invalid UTF-8\n", workers


# -- the loaders ----------------------------------------------------------------------


def test_annotations_and_audit_round_trip_line_separators(tmp_path):
    ids = [f"img{sep}{i}" for i, sep in enumerate(SEPARATORS + ENDINGS)]
    store = {
        image_id: {i: TagEntry("parsed"), i + 10: TagEntry("generated")}
        for i, image_id in enumerate(ids)
    }
    write_annotations(store, tmp_path / "a.jsonl")
    assert load_annotations(tmp_path / "a.jsonl") == store
    events = [AuditEvent(image_id, 3, "removed", "outlier", "clean") for image_id in ids]
    write_audit(events, tmp_path / "audit.jsonl")
    assert load_audit(tmp_path / "audit.jsonl") == events


def test_parse_byte_identical_across_line_ends_and_worker_counts(tmp_path, golden_corpus):
    records = [
        json.dumps({
            "image_id": e["image_id"] + SEPARATORS[i % 3],
            "caption": e["caption"] + SEPARATORS[(i + 1) % 3] + " a red ball",
            "source": SEPARATORS[(i + 2) % 3],
        }, ensure_ascii=False)
        for i, e in enumerate(golden_corpus)
    ]
    runner = CliRunner()
    outputs = set()
    for n, ending in enumerate(ENDINGS):
        captions = tmp_path / f"captions{n}.jsonl"
        captions.write_bytes((ending.join(records) + ending).encode())
        for workers in (1, 2, 3):
            tags, freq = tmp_path / f"tags{n}{workers}.jsonl", tmp_path / f"freq{n}{workers}.tsv"
            result = runner.invoke(cli, [
                "parse", "--captions", str(captions), "--out-tags", str(tags),
                "--out-freq", str(freq), "--workers", str(workers),
            ])
            assert result.exit_code == 0, result.output
            assert f"parsed {len(golden_corpus)} images" in result.stderr
            assert "0 rejected records" in result.stderr
            outputs.add((tags.read_bytes(), freq.read_bytes(), result.stderr))
    assert len(outputs) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_parse_counts_deep_nesting_as_invalid_json(tmp_path, workers):
    captions = tmp_path / "captions.jsonl"
    good = '{"image_id": "a", "caption": "a red dog"}\n'
    captions.write_text(good + "[" * 100000 + "\n" + '{"a": ' * 100000 + "\n" + good)
    corpus = parse_corpus_file(captions, workers=workers)
    assert corpus.rejects.count == 2 and dict(corpus.rejects.reasons) == {"invalid JSON": 2}
    assert list(corpus.image_tags) == ["a"]


def test_engine_generate_names_the_line_of_an_overflowing_tag_id(tmp_path):
    vocab, annotations = tmp_path / "vocab.tsv", tmp_path / "annotations.jsonl"
    save_vocabulary(build_label_system({"dog": 3, "cat": 2}, 2), vocab)
    annotations.write_text("")
    generated = tmp_path / "generated.jsonl"
    generated.write_text(
        '{"image_id": "a", "tag_ids": [0]}\n{"image_id": "b", "tag_ids": [1e999]}\n'
    )
    result = CliRunner().invoke(cli, [
        "engine", "generate", "--annotations", str(annotations), "--vocab", str(vocab),
        "--generated-tags", str(generated), "--out", str(tmp_path / "out.jsonl"),
    ])
    assert result.exit_code == 1
    assert f"{generated}:2: malformed tag-id record" in result.output
    assert "Traceback" not in result.output


# -- fuzz -------------------------------------------------------------------------------

GOOD_RECORDS = [
    {"image_id": "a", "tag_ids": [1, 2]},
    {"image_id": "i", "region_id": "r", "tag_id": 1, "score": 0.5, "embedding_key": "k"},
    {"image_id": "a", "tags": [{"tag_id": 1, "provenance": "parsed"}]},
    {"image_id": "a", "tag_id": 1, "action": "removed", "reason": "outlier", "stage": "clean"},
    {"image_id": "a", "scores": {"1": 0.5, "2": 0.25}, "tags": [1]},
    {"image_id": "a", "positive": [1], "negative": [2]},
    {"image_id": "a", "caption": "a red dog\u2028runs", "source": "s"},
]
FIELDS = sorted({key for record in GOOD_RECORDS for key in record} | {"provenance"})

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
# JSON texts that decode to values the loaders must refuse without a traceback
HOSTILE = ["Infinity", "NaN", "1e999", "-1e999", "1" + "0" * 400, "[" * 5000 + "]" * 5000,
           '"12"', '{"1": [0.5]}', '"\u2028"']
raw_values = json_values.map(json.dumps) | st.sampled_from(HOSTILE)


def _replace_field(record, key, raw):
    return json.dumps({**record, key: "@@"}, ensure_ascii=False).replace('"@@"', raw)


good_lines = st.sampled_from([json.dumps(r, ensure_ascii=False) for r in GOOD_RECORDS])
fuzz_lines = st.one_of(
    good_lines,
    st.tuples(good_lines, st.integers(0, 100)).map(lambda t: t[0][: t[1]]),  # truncated
    st.builds(_replace_field, st.sampled_from(GOOD_RECORDS), st.sampled_from(FIELDS), raw_values),
    raw_values,
    st.text(max_size=30),
)

ENGINE_LOADERS = (load_tag_id_records, load_regions, load_annotations, load_audit)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "pred.jsonl").write_text(json.dumps(GOOD_RECORDS[4]) + "\n")
    (directory / "gt.jsonl").write_text(json.dumps(GOOD_RECORDS[5]) + "\n")
    return directory


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lines=st.lists(fuzz_lines, max_size=6), ending=st.sampled_from(ENDINGS))
def test_every_jsonl_reader_returns_records_or_raises_its_own_error(fuzz_dir, lines, ending):
    path = fuzz_dir / "input.jsonl"
    path.write_bytes(ending.join(lines).encode())
    for loader in ENGINE_LOADERS:
        try:
            loader(path)
        except TagforgeError as exc:
            assert type(exc) is TagforgeError and str(exc).startswith(f"{path}:"), (loader, exc)
    for args in ((path, fuzz_dir / "gt.jsonl"), (fuzz_dir / "pred.jsonl", path)):
        try:
            load_eval_instances(*args)
        except MetricsError:
            pass
    with open(path, encoding="utf-8") as fh:
        non_blank = sum(1 for line in fh if line.strip())
    assert parse_corpus_file(path).rejects.count <= non_blank


# -- the writers ----------------------------------------------------------------------
# the writers lay each line out by hand and pass only values through json.dumps;
# these references dump whole records, as the writers once did


def reference_write_annotations(store, path):
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(store):
            tags = [
                {"tag_id": tag_id, "provenance": e.provenance}
                for tag_id, e in sorted(store[image_id].items())
                if e.state == "kept"
            ]
            if tags:
                fh.write(json.dumps({"image_id": image_id, "tags": tags}, ensure_ascii=False))
                fh.write("\n")


def reference_write_audit(events, path):
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            record = {
                "image_id": e.image_id, "tag_id": e.tag_id, "action": e.action,
                "reason": e.reason, "stage": e.stage,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def reference_write_image_tags(corpus, path):
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(corpus.image_tags):
            tags = [{"surface": t.surface, "kind": t.kind} for t in corpus.image_tags[image_id]]
            fh.write(json.dumps({"image_id": image_id, "tags": tags}, ensure_ascii=False))
            fh.write("\n")


HOSTILE_IDS = [
    "", 'say "cheese"', "back\\slash", "tab\there", "nul\x00", "bell\x07", "esc\x1b",
    "line\u2028sep", "para\u2029sep", "nel\x85", "naïve café", "中文", "🙂", "\x7f",
]


def _sides(tmp_path, write, reference, value):
    ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
    write(value, ours)
    reference(value, theirs)
    return ours.read_bytes(), theirs.read_bytes()


def test_write_annotations_matches_json_dumps_on_hostile_values(tmp_path):
    store = {image_id: {3: TagEntry("parsed"), 1: TagEntry("generated")} for image_id in HOSTILE_IDS}
    store["removed only"] = {5: TagEntry("parsed", "removed_outlier")}
    store["mixed"] = {7: TagEntry('a "quoted" provenance'), 2: TagEntry("seed", "removed_contrary")}
    ours, theirs = _sides(tmp_path, write_annotations, reference_write_annotations, store)
    assert ours == theirs and b"removed only" not in ours

    # what load_annotations accepts: int, float and null ids, list provenance
    (tmp_path / "odd.jsonl").write_text(
        '{"image_id": 7, "tags": [{"tag_id": 1, "provenance": ["a", "b"]}]}\n'
        '{"image_id": 2.5, "tags": [{"tag_id": 1, "provenance": 1}, {"tag_id": 2}]}\n'
        '{"image_id": null, "tags": [{"tag_id": 3, "provenance": true}]}\n'
        '{"image_id": 1e300, "tags": [{"tag_id": 4, "provenance": 1.0}]}\n'
    )
    odd = load_annotations(tmp_path / "odd.jsonl")
    for ids in ([7, 2.5], [None], [1e300]):  # sorted() cannot order None with numbers
        part = {image_id: odd[image_id] for image_id in ids}
        ours, theirs = _sides(tmp_path, write_annotations, reference_write_annotations, part)
        assert ours == theirs


def test_write_audit_matches_json_dumps_on_hostile_values(tmp_path):
    events = [
        AuditEvent(image_id, tag_id, "removed", 'reason "x"', "clean")
        for image_id in HOSTILE_IDS for tag_id in (0, 12)
    ]
    events += [AuditEvent(5, 1, "added", "generated", "generate"), AuditEvent(None, 2, 1, 1.0, True)]
    ours, theirs = _sides(tmp_path, write_audit, reference_write_audit, events)
    assert ours == theirs


def test_write_image_tags_matches_json_dumps_on_hostile_values(tmp_path):
    from tagforge.caption_parser import CorpusParse, ParsedTag, RejectSummary, write_image_tags

    tags = [ParsedTag('a "quoted" dog', "object"), ParsedTag("back\\slash", "attribute"),
            ParsedTag("café ", "action")]
    corpus = CorpusParse({image_id: tags for image_id in HOSTILE_IDS}, RejectSummary())
    ours, theirs = _sides(tmp_path, write_image_tags, reference_write_image_tags, corpus)
    assert ours == theirs


def test_writers_match_json_dumps_across_a_chunk_boundary(tmp_path):
    from tagforge.caption_parser import CorpusParse, ParsedTag, RejectSummary, write_image_tags

    n = jsonl.BATCH_LINES + 1  # one record on the far side of the first chunk
    ids = [f"img{i:06d} " for i in range(n)]
    store = {image_id: {i % 7: TagEntry("parsed")} for i, image_id in enumerate(ids)}
    events = [AuditEvent(image_id, 1, "removed", "outlier", "clean") for image_id in ids]
    corpus = CorpusParse({image_id: [ParsedTag("dog", "object")] for image_id in ids}, RejectSummary())
    for write, reference, value in (
        (write_annotations, reference_write_annotations, store),
        (write_audit, reference_write_audit, events),
        (write_image_tags, reference_write_image_tags, corpus),
    ):
        ours, theirs = _sides(tmp_path, write, reference, value)
        assert ours == theirs and ours.count(b"\n") == n


def test_writers_refuse_a_lone_surrogate(tmp_path):
    from tagforge.caption_parser import CorpusParse, ParsedTag, RejectSummary, write_image_tags

    with pytest.raises(UnicodeEncodeError):
        write_annotations({"bad\ud800": {1: TagEntry("parsed")}}, tmp_path / "a.jsonl")
    with pytest.raises(UnicodeEncodeError):
        write_audit([AuditEvent("bad\udfff", 1, "removed", "outlier", "clean")], tmp_path / "b.jsonl")
    corpus = CorpusParse({"bad\ud83d": [ParsedTag("dog", "object")]}, RejectSummary())
    with pytest.raises(UnicodeEncodeError):
        write_image_tags(corpus, tmp_path / "c.jsonl")
