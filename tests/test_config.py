"""The engine config reader: each key read from a config-file string into its
EngineConfig field, overrides, and the order in which errors are named."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from tagforge import config as config_module
from tagforge.config import (
    DEFAULT_FRACTION,
    DEFAULT_MARGIN,
    DEFAULT_MAX_ITER,
    DEFAULT_MIN_REGIONS,
    DEFAULT_TOL,
    ConfigError,
    EngineConfig,
    build_engine_config,
    load_engine_config,
    read_config_file,
)

REQUIRED_FILES = {
    "captions": "captions.jsonl",
    "vocab": "vocab.tsv",
    "regions": "regions.jsonl",
    "region_embeddings": "regions.emb",
    "queries": "queries.emb",
}


def _touch(directory: Path, *names: str) -> None:
    for name in names:
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")


def _required(directory: Path) -> dict[str, str]:
    """The required keys as config-file strings, relative to `directory`."""
    _touch(directory, *REQUIRED_FILES.values())
    return {**REQUIRED_FILES, "out_dir": "out"}


def _read(tmp_path: Path, text: str) -> EngineConfig:
    path = tmp_path / "engine.cfg"
    path.write_text(text)
    return build_engine_config(read_config_file(path), tmp_path)


def _error(values: dict, base_dir: Path, overrides: dict | None = None, keys=None) -> str:
    with pytest.raises(ConfigError) as excinfo:
        build_engine_config(values, base_dir, overrides, keys)
    return str(excinfo.value)


def test_every_key_is_read_from_a_config_file_string(tmp_path):
    _touch(tmp_path, *REQUIRED_FILES.values(), "gen/a.jsonl", "gen/b.jsonl", "gen/c.jsonl",
           "seed.jsonl", "images.emb", "thresholds.tsv", "whitelist.txt", "lex/x.txt")
    text = "".join(f"{key} = {name}\n" for key, name in REQUIRED_FILES.items()) + (
        "out_dir = out\n"
        "seed = 7\n"
        "lexicon_dir = lex\n"
        "generated_tags = gen/a.jsonl,gen/b.jsonl\n"
        "generated_captions = gen/c.jsonl\n"
        "seed_annotations = seed.jsonl\n"
        "image_embeddings = images.emb\n"
        "thresholds = thresholds.tsv\n"
        "whitelist = whitelist.txt\n"
        "fraction = 0.25\n"
        "outlier_scope = cluster\n"
        "min_regions = 3\n"
        "margin = 0.5\n"
        "tol = 1e-3\n"
        "max_iter = 7\n"
        "workers = 2\n"
    )
    expected = {
        **{key: tmp_path / name for key, name in REQUIRED_FILES.items()},
        "out_dir": tmp_path / "out",
        "seed": 7,
        "lexicon_dir": tmp_path / "lex",
        "generated_tags": [tmp_path / "gen/a.jsonl", tmp_path / "gen/b.jsonl"],
        "generated_captions": [tmp_path / "gen/c.jsonl"],
        "seed_annotations": tmp_path / "seed.jsonl",
        "image_embeddings": tmp_path / "images.emb",
        "thresholds": tmp_path / "thresholds.tsv",
        "whitelist": tmp_path / "whitelist.txt",
        "fraction": 0.25,
        "outlier_scope": "cluster",
        "min_regions": 3,
        "margin": 0.5,
        "tol": 1e-3,
        "max_iter": 7,
        "workers": 2,
    }
    # a field added to EngineConfig must be added here, so its reading is tested
    assert set(expected) == {f.name for f in fields(EngineConfig)}
    config = _read(tmp_path, text)
    for key, value in expected.items():
        got = getattr(config, key)
        assert got == value, key
        if isinstance(value, list):
            assert all(isinstance(p, Path) for p in got), key
        else:
            assert isinstance(got, Path) if isinstance(value, Path) else type(got) is type(value), key


def test_unset_keys_take_their_defaults(tmp_path):
    config = build_engine_config(_required(tmp_path), tmp_path)
    assert (config.seed, config.lexicon_dir, config.generated_tags, config.generated_captions) == (
        0, None, [], []
    )
    assert (config.seed_annotations, config.image_embeddings, config.thresholds,
            config.whitelist) == (None, None, None, None)
    assert (config.fraction, config.outlier_scope, config.min_regions, config.margin,
            config.tol, config.max_iter, config.workers) == (
        DEFAULT_FRACTION, "category", DEFAULT_MIN_REGIONS, DEFAULT_MARGIN, DEFAULT_TOL,
        DEFAULT_MAX_ITER, 1,
    )


def test_paths_join_the_base_dir_unless_absolute(tmp_path):
    base = tmp_path / "cfg"
    values = _required(base)
    _touch(tmp_path, "elsewhere/vocab.tsv")
    values["vocab"] = str(tmp_path / "elsewhere/vocab.tsv")
    values["out_dir"] = "../run"
    config = build_engine_config(values, base)
    assert config.captions == base / "captions.jsonl"
    assert config.vocab == tmp_path / "elsewhere/vocab.tsv"
    assert config.out_dir == base / "../run"


def test_comma_lists_drop_blank_parts(tmp_path):
    _touch(tmp_path, "a.jsonl", "b.jsonl")
    values = {**_required(tmp_path), "generated_tags": " a.jsonl, ,b.jsonl ,,",
              "generated_captions": " , "}
    config = build_engine_config(values, tmp_path)
    assert config.generated_tags == [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    assert config.generated_captions == []


def test_a_list_override_is_taken_as_given(tmp_path, monkeypatch):
    # a flag's relative path is relative to the working directory, not base_dir
    _touch(tmp_path, "a.jsonl", "b.jsonl", "cwd/a.jsonl")
    monkeypatch.chdir(tmp_path / "cwd")
    paths = (str(tmp_path / "b.jsonl"), "a.jsonl")
    config = build_engine_config(_required(tmp_path), tmp_path, {"generated_tags": paths})
    assert config.generated_tags == [tmp_path / "b.jsonl", Path("a.jsonl")]


@pytest.mark.parametrize("key", [
    "lexicon_dir", "seed_annotations", "image_embeddings", "thresholds", "whitelist",
])
def test_an_empty_optional_path_is_none(tmp_path, key):
    config = build_engine_config({**_required(tmp_path), key: ""}, tmp_path)
    assert getattr(config, key) is None


def test_overrides_win_and_none_overrides_are_ignored(tmp_path):
    values = {**_required(tmp_path), "fraction": "0.3", "seed": "9", "workers": "2"}
    _touch(tmp_path, "other/captions.jsonl")
    overrides = {
        "captions": str(tmp_path / "other/captions.jsonl"), "vocab": None, "out_dir": None,
        "fraction": 0, "seed": 5, "workers": None, "whitelist": None,
    }
    config = build_engine_config(values, tmp_path, overrides)
    assert config.captions == tmp_path / "other/captions.jsonl"
    assert config.vocab == tmp_path / "vocab.tsv"
    assert config.out_dir == tmp_path / "out"
    assert config.fraction == 0.0 and type(config.fraction) is float
    assert (config.seed, config.workers, config.whitelist) == (5, 2, None)


@pytest.mark.parametrize("text, seed", [
    ("0x2A", 42), ("0o17", 15), ("0b11", 3), ("1_000", 1000), ("0", 0),
    ("18446744073709551615", 2**64 - 1),
])
def test_seed_is_read_in_any_base(tmp_path, text, seed):
    assert build_engine_config({**_required(tmp_path), "seed": text}, tmp_path).seed == seed


@pytest.mark.parametrize("key, text", [
    ("seed", "020"), ("seed", "2.0"), ("workers", "0x2"), ("fraction", "a tenth"),
    ("min_regions", ""), ("max_iter", "7.0"), ("tol", "1e"),
])
def test_an_unparseable_value_is_named(tmp_path, key, text):
    message = _error({**_required(tmp_path), key: text}, tmp_path)
    assert message == f"config key {key!r}: cannot parse {text!r}"


def test_an_unknown_key_is_named_before_a_missing_one(tmp_path):
    assert _error({"zeta": "1", "alpha": "2"}, tmp_path) == "config key 'alpha': unknown config key"
    message = _error({**_required(tmp_path), "seeds": "1"}, tmp_path)
    assert message == "config key 'seeds': unknown config key"
    assert _error({}, tmp_path, {"margins": 0.1}) == "config key 'margins': unknown config key"


def test_the_first_missing_key_in_field_order_is_named(tmp_path):
    values = _required(tmp_path)
    for key in ("out_dir", "queries", "vocab"):
        del values[key]
        assert _error(values, tmp_path) == f"config key {key!r}: required key missing"


def test_the_first_unparseable_value_in_field_order_is_named(tmp_path):
    bad = {"seed": "x", "fraction": "y", "min_regions": "z", "margin": "m", "tol": "t",
           "max_iter": "i", "workers": "w"}
    values = {**_required(tmp_path), **bad}
    for key in bad:
        assert _error(values, tmp_path) == f"config key {key!r}: cannot parse {bad[key]!r}"
        del values[key]


def test_a_value_is_parsed_before_any_is_range_checked(tmp_path):
    values = {**_required(tmp_path), "fraction": "2.0", "workers": "many"}
    assert _error(values, tmp_path) == "config key 'workers': cannot parse 'many'"


@pytest.mark.parametrize("key, text, message", [
    ("margin", "nan", "must be >= 0"),
    ("tol", "nan", "must be > 0"),
    ("fraction", "nan", "nan outside [0, 1)"),
])
def test_nan_is_out_of_range(tmp_path, key, text, message):
    assert _error({**_required(tmp_path), key: text}, tmp_path) == f"config key {key!r}: {message}"


@pytest.mark.parametrize("text", ["-1", "-3", "18446744073709551616", "0x10000000000000000"])
def test_a_seed_outside_64_bits_is_refused(tmp_path, text):
    message = _error({**_required(tmp_path), "seed": text}, tmp_path)
    assert message == f"config key 'seed': {int(text, 0)} outside [0, 2^64)"


def test_a_bad_seed_is_named_after_every_other_bad_value(tmp_path):
    values = {**_required(tmp_path), "seed": "-1", "workers": "0"}
    assert _error(values, tmp_path) == "config key 'workers': must be >= 1"


def test_an_out_dir_that_is_a_file_is_refused(tmp_path):
    _touch(tmp_path, "out")
    message = _error(_required(tmp_path), tmp_path)
    assert message == f"config key 'out_dir': not a directory: {tmp_path / 'out'}"


def _seed_and_workers(path, seed, workers) -> tuple[int, int]:
    """seed and workers as a command that reads only them takes them."""
    config = load_engine_config(path, {"seed": seed, "workers": workers}, ("seed", "workers"))
    return config.seed, config.workers


def test_seed_and_workers_fall_back_from_flag_to_file_to_default(tmp_path):
    assert _seed_and_workers(None, None, None) == (0, 1)
    assert _seed_and_workers(None, 4, 3) == (4, 3)
    other = tmp_path / "other.cfg"
    other.write_text("captions = c.jsonl\n")  # an unread path need not exist
    assert _seed_and_workers(other, None, None) == (0, 1)
    both = tmp_path / "both.cfg"
    both.write_text("seed = 0x10\nworkers = 3\n")
    assert _seed_and_workers(both, None, None) == (16, 3)
    assert _seed_and_workers(both, 5, None) == (5, 3)
    assert _seed_and_workers(both, None, 2) == (16, 2)
    assert _seed_and_workers(both, 0, 1) == (0, 1)


@pytest.mark.parametrize("text, flags, message", [
    ("seed = 020\n", (None, None), "config key 'seed': cannot parse '020'"),
    ("workers = two\n", (None, None), "config key 'workers': cannot parse 'two'"),
    ("workers = 0\n", (None, None), "config key 'workers': must be >= 1"),
    ("workers = 2\n", (None, -1), "config key 'workers': must be >= 1"),
    ("seed = -1\n", (None, None), "config key 'seed': -1 outside [0, 2^64)"),
    ("workers = 2\n", (2**64, None), "config key 'seed': 18446744073709551616 outside [0, 2^64)"),
    ("seed = -1\nworkers = 0\n", (None, None), "config key 'workers': must be >= 1"),
    ("fraction = 1.0\n", (None, None), "config key 'fraction': 1.0 outside [0, 1)"),
    ("tol = 0\n", (None, None), "config key 'tol': must be > 0"),
    ("bogus_key = 1\n", (None, None), "config key 'bogus_key': unknown config key"),
])
def test_seed_and_workers_name_a_bad_value(tmp_path, text, flags, message):
    # every key in the file is parsed and checked, read or not
    path = tmp_path / "engine.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as excinfo:
        _seed_and_workers(path, *flags)
    assert str(excinfo.value) == message


def test_only_the_keys_a_command_reads_must_be_given_and_exist(tmp_path):
    config = build_engine_config({"captions": "missing.jsonl"}, tmp_path, keys=("workers",))
    assert config.captions == tmp_path / "missing.jsonl"
    assert (config.vocab, config.out_dir, config.generated_tags) == (None, None, [])
    message = _error({"captions": "missing.jsonl"}, tmp_path)
    assert message == "config key 'vocab': required key missing"
    message = _error({"captions": "missing.jsonl"}, tmp_path, keys=("captions",))
    assert message == f"config key 'captions': file not found: {tmp_path / 'missing.jsonl'}"
    values = {**_required(tmp_path), "out_dir": "captions.jsonl", "whitelist": "gone.txt"}
    config = build_engine_config(values, tmp_path, keys=("vocab", "regions"))
    assert config.whitelist == tmp_path / "gone.txt"


@pytest.mark.parametrize("key", [f.name for f in fields(EngineConfig)])
def test_every_key_is_documented(key):
    assert re.search(rf"^    {key} ", config_module.__doc__, re.MULTILINE), key
