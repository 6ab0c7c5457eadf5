"""Command-line interface tying the pipeline stages together.

Exit codes: 0 success, 1 data or validation error, 2 usage error. The
TAGFORGE_DATA_DIR environment variable overrides the packaged lexicon
directory; --lexicon-dir overrides both.

Stage modules are imported by the commands that use them: `parse` and
`build-vocab` start without loading numpy, `tag` without the caption
parser, and `eval` without the caption parser or, unless it is given a
class filter, the label system.
"""

from __future__ import annotations

import functools
import gc
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import __version__
from .config import EngineConfig, load_engine_config
from .errors import TagforgeError

if TYPE_CHECKING:
    from .caption_parser import RejectSummary
    from .data_engine import EngineResult


# every command loads embeddings through these two names in this module, so
# tracing can wrap them here; embedding_store, and numpy, load on first call
def load_embeddings(path):
    from .embedding_store import load_embeddings

    return load_embeddings(path)


def normalize(table):
    from .embedding_store import normalize

    return normalize(table)


def _data_errors(fn):
    """Map tagforge data errors to exit code 1 with a clean message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TagforgeError as exc:
            raise click.ClickException(str(exc)) from exc
        except (OSError, ValueError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def common_options(keys: tuple[str, ...] | None):
    """--seed, --workers and --config for a command that reads config keys
    `keys` (None: every key). A command that reads none draws no random
    numbers and runs in one process: it accepts all three and ignores them.
    One that reads keys but not seed checks --seed's range and draws no
    random numbers either."""
    ignored = keys == ()
    reads = "every key" if keys is None else ", ".join(keys)
    if keys is None or "seed" in keys:
        seed_help = "Random seed [default: 0, or the config file's seed]."
    elif ignored:
        seed_help = "Ignored: this command draws no random numbers."
    else:
        seed_help = "Range-checked, then unused: this command draws no random numbers."

    def decorate(fn):
        fn = click.option("--seed", type=int, default=None, help=seed_help)(fn)
        fn = click.option(
            "--workers", type=int, default=None,
            help="Ignored: this command runs in one process." if ignored
            else "Processes, this one included [default: 1, or the config file's workers].",
        )(fn)
        return click.option(
            "--config",
            "config_path",
            type=click.Path(exists=True, dir_okay=False),
            default=None,
            help="Ignored: this command reads no config keys." if ignored
            else f"Key = value config file; a flag beats its key. Every key is checked, "
                 f"and this command reads {reads}.",
        )(fn)

    return decorate


single_process_options = common_options(())

# a flag's path is relative to the working directory, and a config file's to
# the file's directory
_INPUT_FILE = click.Path(exists=True, dir_okay=False)
_INPUT_DIR = click.Path(exists=True, file_okay=False)

# the config keys each command reads; its other parameters but --config,
# --annotations, --out, --audit and parse's outputs are named for the key
# they override
_PARSE_KEYS = ("captions", "lexicon_dir", "workers")
_GENERATE_KEYS = ("vocab", "lexicon_dir", "generated_tags", "generated_captions", "workers")
_CLEAN_KEYS = (
    "vocab", "regions", "region_embeddings", "queries", "image_embeddings", "thresholds",
    "whitelist", "fraction", "outlier_scope", "min_regions", "margin", "tol", "max_iter",
    "seed", "workers",
)


def _config(config_path, overrides: dict, keys: tuple[str, ...] | None) -> EngineConfig:
    """The settings of a command reading config keys `keys`, from its flags
    in `overrides` (None, or () for a repeatable flag, when not given)."""
    overrides = {key: None if value == () else value for key, value in overrides.items()}
    return load_engine_config(config_path, overrides, keys)


def _default(key: str) -> str:
    """Help text naming config key `key`'s default, as --seed's does."""
    return f"[default: {getattr(EngineConfig, key)}, or the config file's {key}]"


def _echo_rejects(prefix: str, rejects: RejectSummary) -> None:
    """Report skipped caption records and why on stderr."""
    click.echo(f"{prefix}, {rejects.count} rejected records", err=True)
    for reason, count in sorted(rejects.reasons.items()):
        click.echo(f"  reject reason: {reason} ({count})", err=True)


def _report(config: EngineConfig, result: EngineResult, parsed: bool) -> None:
    """Report on stderr what each stage run dropped: the caption records
    parse (when `parsed`) and generate skipped and why, and their tags
    outside the vocabulary; the rejected generated tag-id records; the pairs
    the filter could not score, why it skipped the first, and the images it
    found without a whole-image embedding. Then the stats rows on stdout."""
    ran = {row.stage for row in result.stats.rows}
    if parsed:
        _echo_rejects("parse stage", result.parse_rejects)
        click.echo(f"parse stage, {result.unmapped_surfaces} tags outside the vocabulary", err=True)
    if "generate" in ran and config.generated_captions:
        _echo_rejects("generate stage", result.generated_rejects)
        click.echo(
            f"generate stage, {result.generated_unmapped} tags outside the vocabulary", err=True
        )
    if "generate" in ran and config.generated_tags:
        click.echo(f"generated tags, {result.rejected_generated} rejected records", err=True)
    if "filter" in ran:
        skipped = result.filter_skipped
        line = f"filter stage, {len(skipped)} skipped pairs"
        if skipped:
            image_id, tag_id, reason = skipped[0]
            line += f", first: image {image_id!r} tag {tag_id}: {reason}"
        click.echo(line, err=True)
        if result.images_without_whole_embedding:
            click.echo(
                f"filter stage, {result.images_without_whole_embedding} images without a "
                "whole-image embedding", err=True,
            )
    for row in result.stats.rows:
        click.echo(
            f"{row.stage}\timages={row.images}\ttags={row.tags}\t"
            f"added={row.added}\tremoved={row.removed_total}"
        )


@click.group()
@click.version_option(__version__)
def cli():
    """Caption parsing, tag vocabularies, data engine, and tagging metrics."""


@cli.command("parse")
@common_options(_PARSE_KEYS)
@click.option("--captions", type=_INPUT_FILE, help="Input captions JSONL.")
@click.option("--out-tags", type=click.Path(dir_okay=False), required=True,
              help="Output per-image tags JSONL.")
@click.option("--out-freq", type=click.Path(dir_okay=False), required=True,
              help="Output frequency table TSV.")
@click.option("--lexicon-dir", type=_INPUT_DIR,
              help="Lexicon directory (default: packaged data or TAGFORGE_DATA_DIR).")
@_data_errors
def parse_cmd(out_tags, out_freq, config_path, **overrides):
    """Parse a caption corpus into per-image tags and a frequency table."""
    from . import caption_parser as cp

    config = _config(config_path, overrides, _PARSE_KEYS)
    lexicons = cp.load_lexicons(config.lexicon_dir)
    corpus = cp.parse_corpus_file(config.captions, lexicons, workers=config.workers)
    cp.write_image_tags(corpus, out_tags)
    cp.write_frequency_table(corpus, out_freq)
    _echo_rejects(
        f"parsed {len(corpus.image_tags)} images, {len(corpus.frequencies)} distinct surfaces",
        corpus.rejects,
    )


@cli.command("build-vocab")
@single_process_options
@click.option("--freq", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Frequency table TSV from `parse`.")
@click.option("--k", "top_k", type=int, required=True, help="Keep the top-k frequent surfaces.")
@click.option("--seeds", type=click.Path(exists=True, dir_okay=False), multiple=True,
              help="Seed list file (one surface per line); repeatable.")
@click.option("--synonyms", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Synonym pairs TSV.")
@click.option("--excludes", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Excluded surfaces, one per line.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True,
              help="Output vocabulary file.")
@_data_errors
def build_vocab_cmd(freq, top_k, seeds, synonyms, excludes, out_path, seed, workers, config_path):
    """Build the tag vocabulary from corpus frequencies plus seed lists."""
    from . import caption_parser as cp
    from . import label_system as ls

    freq_table = cp.read_frequency_table(freq)
    seed_lists = [ls.load_surface_list(p) for p in seeds]
    synonym_lexicon = ls.load_synonyms(synonyms) if synonyms else None
    exclude_set = set(ls.load_surface_list(excludes)) if excludes else set()
    vocab = ls.build_label_system(freq_table, top_k, seed_lists, synonym_lexicon, exclude_set)
    ls.save_vocabulary(vocab, out_path)
    click.echo(
        f"vocabulary: {len(vocab)} surfaces, {vocab.num_groups} tag ids, version {vocab.version}",
        err=True,
    )


@cli.command("build-queries")
@single_process_options
@click.option("--vocab", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--prompts", type=click.Path(exists=True, dir_okay=False), required=True,
              help="EMB1 file of prompt embeddings keyed 'template::canonical'.")
@click.option("--templates", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Template list (default: packaged templates.txt).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True,
              help="Output label-query EMB1 file (sidecar written alongside).")
@_data_errors
def build_queries_cmd(vocab, prompts, templates, out_path, seed, workers, config_path):
    """Ensemble prompt embeddings into one label query per tag id."""
    from . import caption_parser as cp
    from . import label_system as ls
    from . import similarity_tagger as st

    vocabulary = ls.load_vocabulary(vocab)
    prompt_table = load_embeddings(prompts)
    template_path = Path(templates) if templates else cp.default_lexicon_dir() / "templates.txt"
    template_list = st.load_templates(template_path)
    queries = st.build_label_queries(vocabulary, prompt_table, template_list)
    st.save_label_queries(queries, out_path, template_list)
    click.echo(
        f"label queries: {len(queries.tag_ids)} tags x {queries.dim} dims, "
        f"{len(template_list)} templates",
        err=True,
    )


@cli.command("tag")
@single_process_options
@click.option("--embeddings", type=click.Path(exists=True, dir_okay=False), required=True,
              help="EMB1 file of image embeddings keyed by image_id.")
@click.option("--queries", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--vocab", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--thresholds", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Threshold profile TSV (default: flat 0.2).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True,
              help="Output predictions JSONL with scores and selected tags; the scores "
                   "also go, in binary, to OUT.scores where that can be written.")
@_data_errors
def tag_cmd(embeddings, queries, vocab, thresholds, out_path, seed, workers, config_path):
    """Score image embeddings against the label queries and apply thresholds."""
    from . import label_system as ls
    from . import similarity_tagger as st

    vocabulary = ls.load_vocabulary(vocab)
    query_matrix = st.load_label_queries(queries, vocabulary)
    profile = st.load_threshold_profile(thresholds)
    profile.validate_against(query_matrix.tag_ids)
    table = normalize(load_embeddings(embeddings))
    st.write_predictions(table, query_matrix, profile, out_path)
    click.echo(f"tagged {len(table)} embeddings", err=True)


@cli.group("engine")
def engine_group():
    """Data-engine stages: generate, clean, or the full run."""


@engine_group.command("generate")
@common_options(_GENERATE_KEYS)
@click.option("--annotations", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Parsed annotations JSONL.")
@click.option("--vocab", type=_INPUT_FILE)
@click.option("--generated-tags", type=_INPUT_FILE, multiple=True,
              help="Generated tag-id JSONL; repeatable.")
@click.option("--generated-captions", type=_INPUT_FILE, multiple=True,
              help="Generated caption JSONL to parse; repeatable.")
@click.option("--lexicon-dir", type=_INPUT_DIR)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--audit", "audit_path", type=click.Path(dir_okay=False), default=None,
              help="Audit JSONL of additions.")
@_data_errors
def engine_generate_cmd(annotations, out_path, audit_path, config_path, **overrides):
    """Merge generated tags and parsed generated captions into the dataset."""
    from . import data_engine as engine

    config = _config(config_path, overrides, _GENERATE_KEYS)
    result = engine.run_engine(
        config, annotations, [engine.STAGE_GENERATE], {"final": out_path, "audit": audit_path}
    )
    _report(config, result, parsed=False)


@engine_group.command("clean")
@common_options(_CLEAN_KEYS)
@click.option("--annotations", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--vocab", type=_INPUT_FILE)
@click.option("--regions", type=_INPUT_FILE)
@click.option("--region-embeddings", type=_INPUT_FILE)
@click.option("--queries", type=_INPUT_FILE)
@click.option("--image-embeddings", type=_INPUT_FILE)
@click.option("--thresholds", type=_INPUT_FILE)
@click.option("--whitelist", type=_INPUT_FILE,
              help="tag_ids to clean and filter, one per line (default: every tag_id).")
@click.option("--fraction", type=float,
              help=f"Outlier fraction per category {_default('fraction')}.")
@click.option("--outlier-scope", type=click.Choice(["category", "cluster"]),
              help="Pool outlier ranking across the category or within each cluster "
                   f"{_default('outlier_scope')}.")
@click.option("--min-regions", type=int,
              help=f"Skip categories with fewer regions {_default('min_regions')}.")
@click.option("--margin", type=float,
              help=f"Contrary-prediction margin {_default('margin')}.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--audit", "audit_path", type=click.Path(dir_okay=False), default=None)
@_data_errors
def engine_clean_cmd(annotations, out_path, audit_path, config_path, **overrides):
    """Run outlier cleaning and the prediction filter on an annotation set."""
    from . import data_engine as engine

    config = _config(config_path, overrides, _CLEAN_KEYS)
    result = engine.run_engine(
        config, annotations, [engine.STAGE_CLEAN, engine.STAGE_FILTER],
        {"final": out_path, "audit": audit_path},
    )
    _report(config, result, parsed=False)


@engine_group.command("run")
@common_options(None)
@click.option("--captions", type=_INPUT_FILE)
@click.option("--vocab", type=_INPUT_FILE)
@click.option("--regions", type=_INPUT_FILE)
@click.option("--region-embeddings", type=_INPUT_FILE)
@click.option("--queries", type=_INPUT_FILE)
# the closing line names out_dir, in full
@click.option("--out-dir", type=click.Path(file_okay=False, resolve_path=True))
@click.option("--fraction", type=float, help="Outlier fraction per category.")
@click.option("--whitelist", type=_INPUT_FILE)
@_data_errors
def engine_run_cmd(config_path, **overrides):
    """Run the full engine from a config file; flags override config keys."""
    from .data_engine import run_engine

    config = _config(config_path, overrides, None)
    result = run_engine(config)
    _report(config, result, parsed=True)
    click.echo(
        f"outputs in {config.out_dir} (final.jsonl, parsed.jsonl, audit.jsonl, stats.tsv)",
        err=True,
    )


@cli.command("eval")
@single_process_options
@click.option("--predictions", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--ground-truth", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--thresholds", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--class-filter", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Evaluate only tag_ids listed in this file.")
@click.option("--exclude-unannotated", is_flag=True, default=False, show_default=True,
              help="Exclude unannotated cells instead of treating them as negatives.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the per-class report TSV here.")
@_data_errors
def eval_cmd(
    predictions, ground_truth, thresholds, class_filter, exclude_unannotated,
    out_path, seed, workers, config_path,
):
    """Evaluate predictions: per-class AP, mAP, micro/macro P/R at threshold."""
    from . import metrics as mx
    from .similarity_tagger import load_threshold_profile

    instances = mx.load_eval_instances(predictions, ground_truth)
    profile = load_threshold_profile(thresholds)
    filter_set = None
    if class_filter:
        from .label_system import load_whitelist

        filter_set = load_whitelist(class_filter)
    report = mx.evaluate(
        instances, profile, filter_set, unannotated_as_negative=not exclude_unannotated
    )
    if out_path:
        mx.write_report(report, out_path)
    click.echo(f"mAP\t{report.mean_ap:.4f}  ({report.evaluated_classes} classes)")
    click.echo(f"micro P/R\t{report.micro_precision:.4f} / {report.micro_recall:.4f}")
    click.echo(f"macro P/R\t{report.macro_precision:.4f} / {report.macro_recall:.4f}")
    if report.skipped_classes:
        click.echo(f"skipped classes: {len(report.skipped_classes)}", err=True)


@cli.command("stats")
@single_process_options
@click.option("--stats-file", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Engine stats TSV.")
@_data_errors
def stats_cmd(stats_file, seed, workers, config_path):
    """Render an engine stats table and verify its conservation identity."""
    from .data_engine import load_stats

    stats = load_stats(stats_file)
    stats.validate_conservation()
    width = max(len(r.stage) for r in stats.rows)
    click.echo(f"{'stage':<{width}}  {'images':>8}  {'tags':>10}  {'added':>8}  removals")
    for row in stats.rows:
        removed = (
            ", ".join(f"{k}={v}" for k, v in sorted(row.removed.items())) if row.removed else "-"
        )
        click.echo(
            f"{row.stage:<{width}}  {row.images:>8}  {row.tags:>10}  {row.added:>8}  {removed}"
        )
    click.echo("conservation: ok", err=True)


def main(argv=None):
    # a command's objects live until it returns, and the cyclic collector
    # finds next to nothing to free among them; its passes cost up to a
    # tenth of an engine run
    collecting = gc.isenabled()
    gc.disable()
    try:
        cli(args=argv, standalone_mode=True, prog_name="tagforge")
    except TagforgeError as exc:  # errors escaping the decorator (load-time etc.)
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    main()
