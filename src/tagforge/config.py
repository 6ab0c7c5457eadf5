"""Engine configuration: key = value text file plus CLI flag overrides.

The keys, their types and their defaults are EngineConfig's fields: a field
without a default is a required key, and each value is read as its field's
annotation says. Paths are resolved relative to the config file's directory
unless absolute; an empty optional path is unset. The keys:

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

from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path

from . import textfile
from .errors import TagforgeError

_seed = partial(int, base=0)  # a seed may be written in any base Python reads, as 0x2A

# engine defaults, the one home of each: EngineConfig's fields, the
# data_engine and clustering functions and `engine clean`'s flags use them
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


# key -> (test for a bad value, message), in the order check_values applies them;
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


def check_values(**values) -> None:
    """Raise ConfigError for the first engine value out of range. Every command
    checks here, so a bad value fails alike from a flag or a config file."""
    for key, value in values.items():
        is_bad, message = _OUT_OF_RANGE[key]
        if is_bad(value):
            raise ConfigError(key, message.format(value))


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

    def validate(self) -> None:
        check_values(**{key: getattr(self, key) for key in _OUT_OF_RANGE})
        for key in ("captions", "vocab", "regions", "region_embeddings", "queries"):
            path = getattr(self, key)
            if not Path(path).is_file():
                raise ConfigError(key, f"file not found: {path}")
        for key in ("seed_annotations", "image_embeddings", "thresholds", "whitelist"):
            path = getattr(self, key)
            if path is not None and not Path(path).is_file():
                raise ConfigError(key, f"file not found: {path}")
        for key in ("generated_tags", "generated_captions"):
            for path in getattr(self, key):
                if not Path(path).is_file():
                    raise ConfigError(key, f"file not found: {path}")
        if self.lexicon_dir is not None and not Path(self.lexicon_dir).is_dir():
            raise ConfigError("lexicon_dir", f"directory not found: {self.lexicon_dir}")
        if Path(self.out_dir).exists() and not Path(self.out_dir).is_dir():
            raise ConfigError("out_dir", f"not a directory: {self.out_dir}")


_FIELDS = {f.name: f for f in fields(EngineConfig)}


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


def _merged(values: dict, overrides: dict) -> dict:
    return {**values, **{key: value for key, value in overrides.items() if value is not None}}


def seed_and_workers(
    config_path: str | Path | None, seed: int | None, workers: int | None
) -> tuple[int, int]:
    """A command's --seed and --workers, each falling back to the config
    file's key, then to the field's default; workers must be >= 1 and seed
    in [0, 2^64)."""
    values = read_config_file(config_path) if config_path is not None else {}
    values = _merged(values, {"seed": seed, "workers": workers})
    seed, workers = (
        _read(key, values[key], Path()) if key in values else _FIELDS[key].default
        for key in ("seed", "workers")
    )
    check_values(workers=workers, seed=seed)
    return seed, workers


def build_engine_config(
    values: dict[str, str], base_dir: str | Path = ".", overrides: dict | None = None
) -> EngineConfig:
    """Merge config-file values with override flags (overrides win), and read
    each key as its EngineConfig field."""
    merged = _merged(values, overrides or {})
    unknown = sorted(set(merged) - set(_FIELDS))
    if unknown:
        raise ConfigError(unknown[0], "unknown config key")
    missing = [key for key, f in _FIELDS.items()
               if f.default is MISSING and f.default_factory is MISSING and key not in merged]
    if missing:
        raise ConfigError(missing[0], "required key missing")
    config = EngineConfig(
        **{key: _read(key, merged[key], Path(base_dir)) for key in _FIELDS if key in merged}
    )
    config.validate()
    return config
