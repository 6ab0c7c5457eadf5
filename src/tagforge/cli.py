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
from .config import (
    DEFAULT_FRACTION,
    DEFAULT_MARGIN,
    DEFAULT_MIN_REGIONS,
    EngineConfig,
    build_engine_config,
    check_values,
    read_config_file,
    seed_and_workers,
)
from .errors import TagforgeError

if TYPE_CHECKING:
    from .caption_parser import RejectSummary


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


def common_options(fn, ignored: bool = False):
    """--seed, --workers and --config. A command that draws no random
    numbers and runs in one process (ignored True) accepts all three and
    ignores them."""
    fn = click.option(
        "--seed", type=int, default=None,
        help="Ignored: this command draws no random numbers."
        if ignored else "Random seed [default: 0, or the config file's seed].",
    )(fn)
    fn = click.option(
        "--workers", type=int, default=None,
        help="Ignored: this command runs in one process."
        if ignored else "Processes, this one included [default: 1, or the config file's workers].",
    )(fn)
    fn = click.option(
        "--config",
        "config_path",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="Ignored: this command reads no config keys."
        if ignored else "Key=value config file supplying defaults.",
    )(fn)
    return fn


def single_process_options(fn):
    return common_options(fn, ignored=True)


def _echo_rejects(prefix: str, rejects: RejectSummary) -> None:
    """Report skipped caption records and why on stderr."""
    click.echo(f"{prefix}, {rejects.count} rejected records", err=True)
    for reason, count in sorted(rejects.reasons.items()):
        click.echo(f"  reject reason: {reason} ({count})", err=True)


def _echo_filter(result) -> None:
    """Report on stderr the pairs the filter could not score, and why it
    skipped the first, then any images it found without a whole-image
    embedding."""
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


@click.group()
@click.version_option(__version__)
def cli():
    """Caption parsing, tag vocabularies, data engine, and tagging metrics."""


@cli.command("parse")
@common_options
@click.option("--captions", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Input captions JSONL.")
@click.option("--out-tags", type=click.Path(dir_okay=False), required=True,
              help="Output per-image tags JSONL.")
@click.option("--out-freq", type=click.Path(dir_okay=False), required=True,
              help="Output frequency table TSV.")
@click.option("--lexicon-dir", type=click.Path(exists=True, file_okay=False), default=None,
              help="Lexicon directory (default: packaged data or TAGFORGE_DATA_DIR).")
@_data_errors
def parse_cmd(captions, out_tags, out_freq, lexicon_dir, seed, workers, config_path):
    """Parse a caption corpus into per-image tags and a frequency table."""
    from . import caption_parser as cp

    _, workers = seed_and_workers(config_path, seed, workers)
    corpus = cp.parse_corpus_file(captions, cp.load_lexicons(lexicon_dir), workers=workers)
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
@common_options
@click.option("--annotations", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Parsed annotations JSONL.")
@click.option("--vocab", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--generated-tags", type=click.Path(exists=True, dir_okay=False), multiple=True,
              help="Generated tag-id JSONL; repeatable.")
@click.option("--generated-captions", type=click.Path(exists=True, dir_okay=False), multiple=True,
              help="Generated caption JSONL to parse; repeatable.")
@click.option("--lexicon-dir", type=click.Path(exists=True, file_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--audit", "audit_path", type=click.Path(dir_okay=False), default=None,
              help="Audit JSONL of additions.")
@_data_errors
def engine_generate_cmd(
    annotations, vocab, generated_tags, generated_captions, lexicon_dir,
    out_path, audit_path, seed, workers, config_path,
):
    """Merge generated tags and parsed generated captions into the dataset."""
    from . import data_engine as engine

    _, workers = seed_and_workers(config_path, seed, workers)
    config = EngineConfig(
        captions=None, vocab=vocab, regions=None, region_embeddings=None, queries=None,
        out_dir=None, lexicon_dir=lexicon_dir, generated_tags=list(generated_tags),
        generated_captions=list(generated_captions), workers=workers,
    )
    result = engine.run_engine(
        config, annotations, [engine.STAGE_GENERATE], {"final": out_path, "audit": audit_path}
    )
    if generated_captions:
        _echo_rejects("generated captions", result.generated_rejects)
        click.echo(
            f"generate stage, {result.generated_unmapped} tags outside the vocabulary", err=True
        )
    click.echo(
        f"generation: +{len(result.audit)} tags, {result.rejected_generated} rejected records, "
        f"{len(result.final)} total", err=True,
    )


@engine_group.command("clean")
@common_options
@click.option("--annotations", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--vocab", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--regions", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--region-embeddings", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--queries", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--image-embeddings", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--thresholds", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--whitelist", type=click.Path(exists=True, dir_okay=False), default=None,
              help="tag_ids to clean and filter, one per line (default: every tag_id).")
@click.option("--fraction", type=float, default=DEFAULT_FRACTION, show_default=True,
              help="Outlier fraction per category.")
@click.option("--outlier-scope", type=click.Choice(["category", "cluster"]),
              default="category", show_default=True,
              help="Pool outlier ranking across the category or within each cluster.")
@click.option("--min-regions", type=int, default=DEFAULT_MIN_REGIONS, show_default=True)
@click.option("--margin", type=float, default=DEFAULT_MARGIN, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--audit", "audit_path", type=click.Path(dir_okay=False), default=None)
@_data_errors
def engine_clean_cmd(
    annotations, vocab, regions, region_embeddings, queries, image_embeddings,
    thresholds, whitelist, fraction, outlier_scope, min_regions, margin,
    out_path, audit_path, seed, workers, config_path,
):
    """Run outlier cleaning and the prediction filter on an annotation set."""
    from . import data_engine as engine

    check_values(fraction=fraction, margin=margin, min_regions=min_regions)
    seed, workers = seed_and_workers(config_path, seed, workers)
    config = EngineConfig(
        captions=None, vocab=vocab, regions=regions, region_embeddings=region_embeddings,
        queries=queries, out_dir=None, seed=seed, image_embeddings=image_embeddings,
        thresholds=thresholds, whitelist=whitelist, fraction=fraction,
        outlier_scope=outlier_scope, min_regions=min_regions, margin=margin, workers=workers,
    )
    result = engine.run_engine(
        config, annotations, [engine.STAGE_CLEAN, engine.STAGE_FILTER],
        {"final": out_path, "audit": audit_path},
    )
    _, clean_row, filter_row = result.stats.rows
    click.echo(
        f"cleaning: -{clean_row.removed_total} outlier, -{filter_row.removed_total} filtered, "
        f"{len(result.final)} kept", err=True,
    )
    _echo_filter(result)


# engine run's flag paths resolve against the CWD, its config paths against
# the config file's directory
_INPUT_FILE = click.Path(exists=True, dir_okay=False, resolve_path=True)


@engine_group.command("run")
@common_options
@click.option("--captions", type=_INPUT_FILE)
@click.option("--vocab", type=_INPUT_FILE)
@click.option("--regions", type=_INPUT_FILE)
@click.option("--region-embeddings", type=_INPUT_FILE)
@click.option("--queries", type=_INPUT_FILE)
@click.option("--out-dir", type=click.Path(file_okay=False, resolve_path=True))
@click.option("--fraction", type=float, help="Outlier fraction per category.")
@click.option("--whitelist", type=_INPUT_FILE)
@_data_errors
def engine_run_cmd(config_path, **overrides):
    """Run the full engine from a config file; flags override config keys."""
    from .data_engine import run_engine

    # every other parameter is named for the config key it overrides
    values = read_config_file(config_path) if config_path is not None else {}
    base = Path(config_path).parent if config_path is not None else Path(".")
    config = build_engine_config(values, base, overrides)
    result = run_engine(config)
    _echo_rejects("parse stage", result.parse_rejects)
    click.echo(f"parse stage, {result.unmapped_surfaces} tags outside the vocabulary", err=True)
    if config.generated_captions:
        _echo_rejects("generate stage", result.generated_rejects)
        click.echo(
            f"generate stage, {result.generated_unmapped} tags outside the vocabulary", err=True
        )
    if config.generated_tags:
        click.echo(f"generated tags, {result.rejected_generated} rejected records", err=True)
    _echo_filter(result)
    for row in result.stats.rows:
        click.echo(
            f"{row.stage}\timages={row.images}\ttags={row.tags}\t"
            f"added={row.added}\tremoved={row.removed_total}"
        )
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
