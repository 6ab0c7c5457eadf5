"""The text-file reader behind every text table: its line rule, comments and
errors, for each of the twelve tables, read through the CLI command that
reads it; and the label queries' JSON header."""

import json
import re
import shutil
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from tagforge import textfile
from tagforge.caption_parser import default_lexicon_dir, load_lexicons, read_frequency_table
from tagforge.cli import cli
from tagforge.config import read_config_file
from tagforge.data_engine import STATS_HEADER, load_stats
from tagforge.embedding_store import EmbeddingTable, save_embeddings
from tagforge.errors import TagforgeError
from tagforge.label_system import (
    VOCAB_HEADER,
    build_label_system,
    load_surface_list,
    load_synonyms,
    load_vocabulary,
    load_whitelist,
    save_vocabulary,
)
from tagforge.similarity_tagger import (
    LabelQueryMatrix,
    load_templates,
    load_threshold_profile,
    save_label_queries,
)

ENDINGS = ("\n", "\r\n", "\r")


# -- the reader ---------------------------------------------------------------------


def test_lines_end_at_newline_crlf_and_cr_only(tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes("a\fb\r\n\n c\u2028d \re\x85\x1cf\v\n  \t\n# g\n  # h\ni".encode())
    assert list(textfile.lines(path, TagforgeError)) == [
        (1, "a\fb"), (3, " c\u2028d "), (4, "e\x85\x1cf\v"), (6, "# g"), (7, "  # h"), (8, "i"),
    ]
    assert list(textfile.rows(textfile.lines(path, TagforgeError))) == [
        (1, "a\fb"), (3, " c\u2028d "), (4, "e\x85\x1cf\v"), (8, "i"),
    ]


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"])
def test_the_first_line_not_utf8_raises_the_callers_error(tmp_path, bad):
    class Own(TagforgeError):
        pass

    path = tmp_path / "x.txt"
    path.write_bytes(b"a\r\n\xc3\xa9\r\r\nb" + bad + b"c\n" + bad + b"\n")
    read = textfile.lines(path, Own)
    assert next(read) == (1, "a")
    assert next(read) == (2, "é")
    with pytest.raises(Own, match=f"^{re.escape(str(path))}:4: invalid UTF-8$"):
        next(read)


# -- every text table, through the CLI -----------------------------------------------


@pytest.fixture
def inputs(tmp_path):
    """Valid inputs for the CLI commands that read each table."""
    f = SimpleNamespace(out=str(tmp_path / "out"), out2=str(tmp_path / "out2"))
    for name, text in (
        ("captions", ""),
        ("annotations", ""),
        ("freq", "dog\t3\n"),
        ("predictions", '{"image_id": "a", "scores": {"0": 0.5}}\n'),
        ("truth", '{"image_id": "a", "positive": [0]}\n'),
    ):
        (tmp_path / name).write_text(text)
        setattr(f, name, str(tmp_path / name))
    f.vocab = str(tmp_path / "vocab")
    save_vocabulary(build_label_system({"dog": 3}, 1), f.vocab)
    f.prompts = str(tmp_path / "prompts")
    save_embeddings(EmbeddingTable.from_vectors({"x": [1.0, 0.0]}, normalized=True), f.prompts)
    return f


def _parse(f, path):
    return ["parse", "--captions", f.captions, "--out-tags", f.out, "--out-freq", f.out2]


def _with_lexicons(f, path):
    return _parse(f, path) + ["--lexicon-dir", str(path.parent)]


def _build_vocab(*args):
    return lambda f, path: ["build-vocab", "--freq", f.freq, "--k", "1", "--out", f.out,
                            *[str(path) if a is None else a for a in args]]


def _eval(flag):
    return lambda f, path: ["eval", "--predictions", f.predictions, "--ground-truth", f.truth,
                            flag, str(path)]


def _lexicon(path):
    return load_lexicons(path.parent)


def _vocabulary(path):
    vocab = load_vocabulary(path)
    return vocab.groups, vocab.version


STATS_COLUMNS = "\t".join([
    "stage", "images", "tags", "added", "removed_outlier", "removed_no_prediction",
    "removed_contrary",
])

# table: (file name, header lines, rows, the CLI command reading the file, its loader).
# The second row holds "\f" and the third U+2028, which must not end a line.
TABLES = {
    "pos lexicon": (
        "pos_lexicon.tsv", [], ["dog\tNOUN", "d\fg\tNOUN", "d\u2028g\tADJ"],
        _with_lexicons, _lexicon,
    ),
    "lemma exceptions": (
        "lemma_exceptions.tsv", [], ["mice\tmouse", "m\fce\tmouse", "m\u2028ce\tmouse"],
        _with_lexicons, _lexicon,
    ),
    "stopwords": (
        "stopwords.txt", [], ["the", "t\fe", "t\u2028e"], _with_lexicons, _lexicon,
    ),
    "frequency table": (
        "freq.tsv", [], ["dog\t3", "d\fg\t2", "d\u2028g\t1"],
        lambda f, path: ["build-vocab", "--freq", str(path), "--k", "1", "--out", f.out],
        read_frequency_table,
    ),
    "vocabulary": (
        "vocab.tsv", [VOCAB_HEADER, "#version=abc"],
        ["0\tdog\tdog\t3\tcorpus", "1\td\fg\td\fg\t2\tseed", "2\td\u2028g\td\u2028g\t1\tboth"],
        lambda f, path: ["engine", "generate", "--annotations", f.annotations,
                         "--vocab", str(path), "--out", f.out],
        _vocabulary,
    ),
    "seed list": (
        "seeds.txt", [], ["dog", "d\fg", "d\u2028g"], _build_vocab("--seeds", None),
        load_surface_list,
    ),
    "synonyms": (
        "synonyms.tsv", [], ["dog\thound", "d\fg\thound", "d\u2028g\thound"],
        _build_vocab("--synonyms", None), load_synonyms,
    ),
    "class filter": (
        "classes.txt", [], ["0", "1\f", "2\u2028"], _eval("--class-filter"), load_whitelist,
    ),
    "thresholds": (
        "thresholds.tsv", [], ["*\t0.5", "0\t0.25\f", "1\t0.75\u2028"], _eval("--thresholds"),
        load_threshold_profile,
    ),
    "templates": (
        "templates.txt", [], ["a {tag}", "a\f{tag}", "a\u2028{tag}"],
        lambda f, path: ["build-queries", "--vocab", f.vocab, "--prompts", f.prompts,
                         "--templates", str(path), "--out", f.out],
        load_templates,
    ),
    "engine stats": (
        "stats.tsv", [STATS_HEADER, STATS_COLUMNS],
        ["parse\t1\t2\t2\t0\t0\t0", "gene\frate\t1\t2\t0\t0\t0\t0",
         "cl\u2028ean\t1\t1\t0\t1\t0\t0"],
        lambda f, path: ["stats", "--stats-file", str(path)], load_stats,
    ),
    "config": (
        "engine.conf", [], ["seed = 1", "workers = 1\f", "fraction = 0.2\u2028"],
        lambda f, path: _parse(f, path) + ["--config", str(path)], read_config_file,
    ),
}


def _write(directory, name, lines, tail=b""):
    """The file name in directory, beside a copy of the packaged lexicons,
    its lines ended by each of ENDINGS in turn, then tail."""
    shutil.copytree(default_lexicon_dir(), directory)
    path = directory / name
    text = "".join(line + ENDINGS[i % len(ENDINGS)] for i, line in enumerate(lines))
    path.write_bytes(text.encode() + tail)
    return path


@pytest.mark.parametrize("table", TABLES)
def test_every_text_table_reads_lines_comments_and_bytes_alike(tmp_path, inputs, table):
    name, header, rows, command, load = TABLES[table]
    lines = header + rows[:1] + ["  # an indented comment", " \t"] + rows[1:]

    # the comment and the blank line are skipped
    loaded = load(_write(tmp_path / "a", name, lines))
    assert loaded == load(_write(tmp_path / "b", name, header + rows))

    # each of rows is one line, so the stray byte is on line len(lines) + 1
    path = _write(tmp_path / "c", name, lines, tail=b"x\xffy\n")
    result = CliRunner().invoke(cli, [str(a) for a in command(inputs, path)])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: {path}:{len(lines) + 1}: invalid UTF-8\n"


def test_each_row_holding_a_separator_is_one_row(tmp_path):
    seeds = load_surface_list(_write(tmp_path / "a", "s.txt", TABLES["seed list"][2]))
    assert seeds == ["dog", "d\fg", "d\u2028g"]
    lexicons = load_lexicons(_write(tmp_path / "b", "stopwords.txt", TABLES["stopwords"][2]).parent)
    assert lexicons.stopwords == {"the", "t\fe", "t\u2028e"}
    stats = load_stats(_write(tmp_path / "c", "stats.tsv", [STATS_HEADER, STATS_COLUMNS]
                              + TABLES["engine stats"][2]))
    assert [row.stage for row in stats.rows] == ["parse", "gene\frate", "cl\u2028ean"]


# -- the label queries' JSON header -------------------------------------------------


@pytest.mark.parametrize("header, message", [
    (b"[]\n", "not a JSON object"),
    (b'"vocab_version"\n', "not a JSON object"),
    (b'{"vocab_version": \n', "not JSON"),
    (b'{\n"vocab_version": "\xff"}\n', None),
])
def test_tag_names_a_bad_query_header(tmp_path, header, message):
    vocab = build_label_system({"dog": 3, "cat": 2}, 2)
    save_vocabulary(vocab, tmp_path / "vocab")
    queries = tmp_path / "queries"
    matrix = LabelQueryMatrix(vocab.version, tuple(vocab.tag_ids()), vocab.canonicals,
                              np.eye(2))
    save_label_queries(matrix, queries, ["a {tag}"])
    meta = tmp_path / "queries.meta.json"
    assert json.loads(meta.read_text())["vocab_version"] == vocab.version
    meta.write_bytes(header)
    result = CliRunner().invoke(cli, [
        "tag", "--embeddings", str(queries), "--queries", str(queries),
        "--vocab", str(tmp_path / "vocab"), "--out", str(tmp_path / "pred.jsonl"),
    ])
    assert result.exit_code == 1
    want = f"{meta}: {message}" if message else f"{meta}:2: invalid UTF-8"
    assert result.output == f"Error: {want}\n"
