"""Engine configuration: key = value text file plus CLI flag overrides.

Every command that takes --config (`parse`, `engine generate`, `engine
clean`, `engine run`) builds its settings through build_engine_config: a key
comes from its flag, else the file, else its default. Every key given is
parsed and checked; a command names the keys it reads, and only those must
be given when required and have their files exist.

The keys, their types and their defaults are EngineConfig's fields: a field
without a default is a required key, and each value is read as its field's
annotation says. A file's paths are resolved relative to its directory unless
absolute, a flag's relative to the working directory; an empty optional path
is unset. The keys:

    captions            JSONL caption corpus (required)
    vocab               vocabulary file (required)
    regions             regions JSONL (required)
    region_embeddings   EMB1 file for region vectors (required)
    queries             label-query EMB1 file with sidecar (required)
    out_dir             output directory, made if missing (required)
    seed                integer in [0, 2^64), drives all randomness (default 0)
    lexicon_dir         lexicon directory (default: packaged data)
    generated_tags      comma-separated JSONL paths of generated tag ids
    generated_captions  comma-separated JSONL caption paths to parse
    seed_annotations    JSONL of externally supplied per-image tag ids
    image_embeddings    EMB1 file of whole-image vectors (enables the
                        contrary-prediction check)
    thresholds          threshold profile TSV (default: flat 0.2)
    whitelist           file of one tag_id per line; only these categories
                        are cleaned and only their pairs filtered (default:
                        every category)
    fraction            outlier fraction in [0, 1) (default DEFAULT_FRACTION)
    outlier_scope       "category" pools distances across the whole category,
                        "cluster" marks the fraction within each cluster
                        (default "category")
    min_regions         skip categories with fewer regions
                        (default DEFAULT_MIN_REGIONS)
    margin              contrary-prediction margin (default DEFAULT_MARGIN)
    tol                 Lloyd convergence tolerance (default DEFAULT_TOL)
    max_iter            Lloyd iteration cap (default DEFAULT_MAX_ITER)
    workers             processes that parse and clean, this one included, so
                        helpers start only above 1 (default 1); outputs are
                        byte-identical at every count
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path

from . import textfile
from .errors import TagforgeError

_seed = partial(int, base=0)  # a seed may be written in any base Python reads, as 0x2A

# engine defaults, the one home of each: EngineConfig's fields and the
# data_engine and clustering functions use them; every flag defaults to None
DEFAULT_FRACTION = 0.10
DEFAULT_MIN_REGIONS = 20
DEFAULT_MARGIN = 0.05
DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 100


class ConfigError(TagforgeError):
    """An error in config key `key`; with key None, the message names the
    config file and line."""

    def __init__(self, key: str | None, message: str):
        self.key = key
        super().__init__(message if key is None else f"config key {key!r}: {message}")


# key -> (test for a bad value, message), in the order validate applies them;
# each float test is written so that NaN is bad
_OUT_OF_RANGE = {
    "fraction": (lambda v: not 0.0 <= v < 1.0, "{} outside [0, 1)"),
    "outlier_scope": (lambda v: v not in ("category", "cluster"),
                      "{!r} is not 'category' or 'cluster'"),
    "margin": (lambda v: not v >= 0, "must be >= 0"),
    "tol": (lambda v: not v > 0, "must be > 0"),
    "max_iter": (lambda v: v < 1, "must be >= 1"),
    "min_regions": (lambda v: v < 0, "must be >= 0"),
    "workers": (lambda v: v < 1, "must be >= 1"),
    "seed": (lambda v: not 0 <= v < 2**64, "{} outside [0, 2^64)"),
}

# how validate checks a path: the lexicon directory must be one, out_dir
# must be one if it exists, and every other path must be there and not be a
# directory, as a flag's must; so a pipe, or /dev/stdin, may be read
_FILE_CHECK = (lambda path: path.exists() and not path.is_dir(), "file not found")
_PATH_CHECKS = {
    "lexicon_dir": (Path.is_dir, "directory not found"),
    "out_dir": (lambda path: not path.exists() or path.is_dir(), "not a directory"),
}


@dataclass
class EngineConfig:
    captions: Path
    vocab: Path
    regions: Path
    region_embeddings: Path
    queries: Path
    out_dir: Path
    seed: int = 0
    lexicon_dir: Path | None = None
    generated_tags: list[Path] = field(default_factory=list)
    generated_captions: list[Path] = field(default_factory=list)
    seed_annotations: Path | None = None
    image_embeddings: Path | None = None
    thresholds: Path | None = None
    whitelist: Path | None = None
    fraction: float = DEFAULT_FRACTION
    outlier_scope: str = "category"
    min_regions: int = DEFAULT_MIN_REGIONS
    margin: float = DEFAULT_MARGIN
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    workers: int = 1

    def validate(self, keys: Collection[str] | None = None) -> None:
        """Raise ConfigError for the first value out of range, then for the
        first path of `keys` (None: every key), in field order, that is not
        there; a bad value fails alike from a flag or a config file."""
        for key, (is_bad, message) in _OUT_OF_RANGE.items():
            if is_bad(getattr(self, key)):
                raise ConfigError(key, message.format(getattr(self, key)))
        for f in fields(self):
            value = getattr(self, f.name)
            if "Path" not in f.type or value is None or keys is not None and f.name not in keys:
                continue
            is_there, message = _PATH_CHECKS.get(f.name, _FILE_CHECK)
            for path in value if f.type == "list[Path]" else [value]:
                if not is_there(Path(path)):
                    raise ConfigError(f.name, f"{message}: {path}")


_FIELDS = {f.name: f for f in fields(EngineConfig)}
_REQUIRED = [key for key, f in _FIELDS.items()
             if f.default is MISSING and f.default_factory is MISSING]


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse the 'key = value' rows of a text table."""
    values: dict[str, str] = {}
    for lineno, line in textfile.rows(textfile.lines(path, partial(ConfigError, None))):
        key, equals, value = (part.strip() for part in line.partition("="))
        if not equals:
            raise ConfigError(key.split()[0], f"line {lineno} is not 'key = value'")
        if key in values:
            raise ConfigError(key, f"duplicated on line {lineno}")
        values[key] = value
    return values


def _read(key: str, value, base_dir: Path):
    """Config value `value` as EngineConfig field `key`'s annotation reads it.
    A path joins `base_dir` unless it is absolute."""
    kind = _FIELDS[key].type
    if kind == "Path | None":
        return base_dir / str(value) if value else None
    if kind == "Path":
        return base_dir / str(value)
    if kind == "list[Path]":
        if not isinstance(value, (list, tuple)):
            value = [part.strip() for part in str(value).split(",") if part.strip()]
        return [base_dir / str(part) for part in value]
    cast = _seed if key == "seed" else {"int": int, "float": float, "str": str}[kind]
    try:
        return cast(str(value))
    except ValueError:
        raise ConfigError(key, f"cannot parse {value!r}") from None


def build_engine_config(
    values: dict[str, str],
    base_dir: str | Path = ".",
    overrides: dict | None = None,
    keys: Collection[str] | None = None,
) -> EngineConfig:
    """Merge config-file values with override flags (overrides win; a None
    override is not given), read each key as its EngineConfig field and
    check it. A file's path joins `base_dir`; a flag's is taken as given.
    `keys` are the keys the command reads (None: every key): only these must
    be given when required, and only their paths must exist; an unread
    required key not given is None."""
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    merged = {**values, **given}
    unknown = sorted(set(merged) - set(_FIELDS))
    if unknown:
        raise ConfigError(unknown[0], "unknown config key")
    missing = [key for key in _REQUIRED if key not in merged and (keys is None or key in keys)]
    if missing:
        raise ConfigError(missing[0], "required key missing")
    read = {key: _read(key, merged[key], Path("." if key in given else base_dir))
            for key in _FIELDS if key in merged}
    config = EngineConfig(**{**dict.fromkeys(_REQUIRED), **read})
    config.validate(keys)
    return config


def load_engine_config(
    path: str | Path | None, overrides: dict, keys: Collection[str] | None = None
) -> EngineConfig:
    """build_engine_config over config file `path` (None: no file), whose
    paths join the file's directory."""
    if path is None:
        return build_engine_config({}, ".", overrides, keys)
    return build_engine_config(read_config_file(path), Path(path).parent, overrides, keys)
