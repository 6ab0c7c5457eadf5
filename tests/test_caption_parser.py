import json
import os
import re
import threading
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagforge.caption_parser import (
    CaptionRecord,
    ParsedTag,
    extract_tags,
    lemmatize,
    parse_caption,
    parse_corpus,
    parse_corpus_file,
    tokenize,
)
from tagforge.errors import TagforgeError


@pytest.mark.parametrize(
    "token,lemma",
    [
        ("dogs", "dog"),
        ("running", "run"),
        ("sky", "sky"),
        ("cities", "city"),
        ("boxes", "box"),
        ("dishes", "dish"),
        ("horses", "horse"),
        ("glasses", "glass"),
        ("buses", "bus"),
        ("falling", "fall"),
        ("sitting", "sit"),
        ("stopped", "stop"),
        ("children", "child"),
        ("sheep", "sheep"),
        ("is", "is"),
        ("tomatoes", "tomato"),
    ],
)
def test_lemmatize_cases(lexicons, token, lemma):
    assert lemmatize(token, lexicons) == lemma


def test_lemmatize_idempotent_on_lexicon(lexicons):
    for word in lexicons.pos_lexicon:
        once = lemmatize(word, lexicons)
        assert lemmatize(once, lexicons) == once, word


def test_lemma_exception_values_are_fixed_points(lexicons):
    for inflected, lemma in lexicons.lemma_exceptions.items():
        assert lemmatize(lemma, lexicons) == lemma, (inflected, lemma)


def test_stopwords_lemmatize_into_stopwords(lexicons):
    # a mangled stopword would escape the never-emitted guarantee
    for word in lexicons.stopwords:
        assert lemmatize(word, lexicons) in lexicons.stopwords, word


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz'-", min_size=1, max_size=14))
def test_lemmatize_total_on_arbitrary_tokens(token):
    lex = load_lexicons_cached()
    lemma = lemmatize(token, lex)
    assert lemma
    assert lemma == lemma.lower()


def load_lexicons_cached():
    from tagforge.caption_parser import load_lexicons

    return load_lexicons()


def test_tokenize_punctuation_and_possessives():
    assert tokenize("A red, shiny car!") == ["a", "red", "shiny", "car"]
    assert tokenize("the dog's bone") == ["the", "dog", "bone"]
    assert tokenize("the dogs' bones") == ["the", "dogs", "bones"]
    assert tokenize("double-decker bus") == ["double-decker", "bus"]
    assert tokenize("it’s nice") == ["it", "nice"]
    assert tokenize("café au lait") == ["café", "au", "lait"]
    assert tokenize("__under__ score") == ["under", "score"]
    assert tokenize("  !!!  ") == []


def test_golden_corpus_exact(lexicons, golden_corpus):
    assert len(golden_corpus) >= 50
    for entry in golden_corpus:
        record = CaptionRecord(entry["image_id"], entry["caption"], "golden")
        got = [[t.surface, t.kind] for t in parse_caption(record, lexicons)]
        assert got == entry["expected"], entry["image_id"]


def test_emitted_surfaces_are_clean(lexicons, golden_corpus):
    for entry in golden_corpus:
        for surface, kind in extract_tags(entry["caption"], lexicons):
            assert surface == surface.lower()
            assert surface == surface.strip()
            assert surface
            for word in surface.split(" "):
                assert word not in lexicons.stopwords


def test_parse_caption_requires_image_id(lexicons):
    with pytest.raises(ValueError):
        parse_caption(CaptionRecord("", "a dog"), lexicons)


def test_parse_corpus_empty(lexicons):
    result = parse_corpus([], lexicons)
    assert result.image_tags == {}
    assert result.frequencies == {}
    assert result.rejects.count == 0


def test_parse_corpus_per_image_dedup(lexicons):
    records = [
        CaptionRecord("img1", "a dog sleeping"),
        CaptionRecord("img1", "the dog and a ball"),
    ]
    result = parse_corpus(records, lexicons)
    assert result.frequencies["dog"] == 1
    assert result.frequencies["ball"] == 1
    surfaces = {t.surface for t in result.image_tags["img1"]}
    assert surfaces == {"dog", "ball", "sleep"}


def test_parse_corpus_matches_bruteforce_recount(lexicons, golden_corpus):
    records = [
        CaptionRecord(e["image_id"], e["caption"], "golden") for e in golden_corpus
    ]
    # give some images a second caption
    records += [
        CaptionRecord("g002", "two dogs running"),
        CaptionRecord("g003", "a red traffic light"),
    ]
    result = parse_corpus(records, lexicons)

    # independent recount: single pass, sets per image, then counts
    per_image: dict[str, set[str]] = {}
    for record in records:
        tags = extract_tags(record.caption, lexicons)
        per_image.setdefault(record.image_id, set()).update(s for s, _ in tags)
    expected = Counter()
    for surfaces in per_image.values():
        expected.update(surfaces)
    assert result.frequencies == dict(expected)


def test_parse_corpus_order_independent(lexicons, golden_corpus):
    records = [CaptionRecord(e["image_id"], e["caption"]) for e in golden_corpus]
    forward = parse_corpus(records, lexicons)
    backward = parse_corpus(reversed(records), lexicons)  # an iterator, not a list
    assert forward.image_tags == backward.image_tags
    assert forward.frequencies == backward.frequencies


def test_parse_corpus_rejects_malformed(lexicons):
    records = [
        CaptionRecord("ok", "a dog"),
        {"image_id": "", "caption": "empty id"},
        {"caption": "missing id"},
        {"image_id": "x", "caption": 42},
        "not a record",
    ]
    result = parse_corpus(records, lexicons)
    assert result.rejects.count == 4
    assert set(result.image_tags) == {"ok"}


def test_parse_corpus_file_worker_invariance(tmp_path, lexicons, golden_corpus):
    path = tmp_path / "captions.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for e in golden_corpus:
            fh.write(json.dumps({"image_id": e["image_id"], "caption": e["caption"], "source": "g"}))
            fh.write("\n")
        fh.write("this is not json\n")
    single = parse_corpus_file(path, workers=1)
    multi = parse_corpus_file(path, workers=4)
    assert single.image_tags == multi.image_tags
    assert single.frequencies == multi.frequencies
    assert single.rejects.count == multi.rejects.count == 1


def _parse_through_pipe(fifo, data: bytes, workers: int):
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the finally below read nothing
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return parse_corpus_file(fifo, workers=workers)
    finally:
        # frees a writer still waiting for a reader if the parse never opened the pipe
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.parametrize("workers", [1, 2])
def test_parse_corpus_file_reads_a_pipe_whole(tmp_path, golden_corpus, workers):
    # a pipe has no size to split by, so it is one range at every worker count
    lines = [json.dumps({"image_id": e["image_id"], "caption": e["caption"]}) for e in golden_corpus]
    data = ("\n".join(lines) + "\nnot json\n").encode()
    path = tmp_path / "captions.jsonl"
    path.write_bytes(data)
    expected = parse_corpus_file(path, workers=workers)
    got = _parse_through_pipe(tmp_path / "captions.fifo", data, workers)
    assert len(got.image_tags) == len({e["image_id"] for e in golden_corpus})
    assert got.image_tags == expected.image_tags
    assert got.frequencies == expected.frequencies
    assert got.rejects.count == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_invalid_utf8_in_a_pipe_names_its_line(tmp_path, workers):
    # the pipe cannot be read again to find the line, so what was read names it
    data = b'{"image_id": "a", "caption": "a dog"}\r\n\n{"image_id": "b", "caption": "\xff"}\n'
    fifo = tmp_path / "captions.fifo"
    with pytest.raises(TagforgeError, match=f"^{re.escape(str(fifo))}:3: invalid UTF-8$"):
        _parse_through_pipe(fifo, data, workers)


def test_per_image_output_is_canonically_ordered(lexicons):
    records = [
        CaptionRecord("i", "a red ball"),
        CaptionRecord("i", "a dog running"),
    ]
    result = parse_corpus(records, lexicons)
    tags = result.image_tags["i"]
    assert tags == [
        ParsedTag("ball", "object"),
        ParsedTag("dog", "object"),
        ParsedTag("red", "attribute"),
        ParsedTag("run", "action"),
    ]
