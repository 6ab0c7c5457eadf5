"""Engine configuration: key = value text file plus CLI flag overrides.

Recognized keys (paths are resolved relative to the config file's directory
unless absolute):

    captions            JSONL caption corpus (required)
    vocab               vocabulary file (required)
    regions             regions JSONL (required)
    region_embeddings   EMB1 file for region vectors (required)
    queries             label-query EMB1 file with sidecar (required)
    out_dir             output directory (required)
    seed                64-bit integer, drives all randomness (default 0)
    lexicon_dir         lexicon directory (default: packaged data)
    generated_tags      comma-separated JSONL paths of generated tag ids
    generated_captions  comma-separated JSONL caption paths to parse
    seed_annotations    JSONL of externally supplied per-image tag ids
    image_embeddings    EMB1 file of whole-image vectors (enables the
                        contrary-prediction check)
    thresholds          threshold profile TSV (default: flat 0.2)
    whitelist           file of one tag_id per line; only these categories
                        are cleaned (default: every category with regions)
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

from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

from . import textfile
from .errors import TagforgeError

_seed = partial(int, base=0)  # a seed may be written in any base Python reads, as 0x2A

# engine defaults, the one home of each: EngineConfig, build_engine_config,
# the data_engine and clustering functions and `engine clean`'s flags use them
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


# key -> (test for a bad value, message), in the order check_values applies them
_OUT_OF_RANGE = {
    "fraction": (lambda v: not 0.0 <= v < 1.0, "{} outside [0, 1)"),
    "outlier_scope": (lambda v: v not in ("category", "cluster"),
                      "{!r} is not 'category' or 'cluster'"),
    "margin": (lambda v: v < 0, "must be >= 0"),
    "tol": (lambda v: v <= 0, "must be > 0"),
    "max_iter": (lambda v: v < 1, "must be >= 1"),
    "min_regions": (lambda v: v < 0, "must be >= 0"),
    "workers": (lambda v: v < 1, "must be >= 1"),
}


def check_values(**values) -> None:
    """Raise ConfigError for the first engine value out of range. Every command
    checks here, so a bad value fails alike from a flag or a config file."""
    for key, value in values.items():
        is_bad, message = _OUT_OF_RANGE[key]
        if is_bad(value):
            raise ConfigError(key, message.format(value))


_REQUIRED = ("captions", "vocab", "regions", "region_embeddings", "queries", "out_dir")


@dataclass
class EngineConfig:
    captions: Path
    vocab: Path
    regions: Path
    region_embeddings: Path
    queries: Path
    out_dir: Path
    seed: int
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


def _number(values: dict, key: str, cast, default=None):
    if key not in values:
        return default
    try:
        return cast(str(values[key]))
    except ValueError:
        raise ConfigError(key, f"cannot parse {values[key]!r}") from None


def seed_and_workers(
    config_path: str | Path | None, seed: int | None, workers: int | None
) -> tuple[int, int]:
    """A command's --seed and --workers, each falling back to the config
    file's key, then to 0 and 1; workers must be >= 1."""
    values = read_config_file(config_path) if config_path is not None else {}
    if seed is None:
        seed = _number(values, "seed", _seed, 0)
    if workers is None:
        workers = _number(values, "workers", int, 1)
    check_values(workers=workers)
    return seed, workers


def build_engine_config(
    values: dict[str, str], base_dir: str | Path = ".", overrides: dict | None = None
) -> EngineConfig:
    """Merge config-file values with override flags (overrides win)."""
    base_dir = Path(base_dir)
    merged = dict(values)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    unknown = sorted(set(merged) - {f.name for f in fields(EngineConfig)})
    if unknown:
        raise ConfigError(unknown[0], "unknown config key")
    missing = [key for key in _REQUIRED if key not in merged]
    if missing:
        raise ConfigError(missing[0], "required key missing")

    def path_of(value) -> Path:
        p = Path(str(value))
        return p if p.is_absolute() else base_dir / p

    def path_list(key: str) -> list[Path]:
        raw = merged.get(key, "")
        if isinstance(raw, (list, tuple)):
            return [path_of(v) for v in raw]
        return [path_of(part.strip()) for part in str(raw).split(",") if part.strip()]

    config = EngineConfig(
        captions=path_of(merged["captions"]),
        vocab=path_of(merged["vocab"]),
        regions=path_of(merged["regions"]),
        region_embeddings=path_of(merged["region_embeddings"]),
        queries=path_of(merged["queries"]),
        out_dir=path_of(merged["out_dir"]),
        seed=_number(merged, "seed", _seed, 0),
        lexicon_dir=path_of(merged["lexicon_dir"]) if merged.get("lexicon_dir") else None,
        generated_tags=path_list("generated_tags"),
        generated_captions=path_list("generated_captions"),
        seed_annotations=path_of(merged["seed_annotations"]) if merged.get("seed_annotations") else None,
        image_embeddings=path_of(merged["image_embeddings"]) if merged.get("image_embeddings") else None,
        thresholds=path_of(merged["thresholds"]) if merged.get("thresholds") else None,
        whitelist=path_of(merged["whitelist"]) if merged.get("whitelist") else None,
        fraction=_number(merged, "fraction", float, DEFAULT_FRACTION),
        outlier_scope=str(merged.get("outlier_scope", "category")),
        min_regions=_number(merged, "min_regions", int, DEFAULT_MIN_REGIONS),
        margin=_number(merged, "margin", float, DEFAULT_MARGIN),
        tol=_number(merged, "tol", float, DEFAULT_TOL),
        max_iter=_number(merged, "max_iter", int, DEFAULT_MAX_ITER),
        workers=_number(merged, "workers", int, 1),
    )
    config.validate()
    return config
