"""In-process span tracing of tagforge's public functions.

The tracer replaces a function at the module attribute the program calls it
through (``tagforge.data_engine.lloyd``, not ``tagforge.clustering.lloyd``,
because ``data_engine`` imports the name) with a wrapper that records a
span: name, start, end and the index of the enclosing span. Spans stay in
memory until ``write_spans``. Counts that a layer's ratios need are taken
from each call's arguments and result after its span has closed.

Parse pool workers are separate processes and are not traced: a parallel
``parse_corpus_file`` is one span.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# on_call(counters, args, kwargs, result, duration) updates per-layer counts
OnCall = Callable[[dict, tuple, dict, Any, float], None]


def _file_mb(path) -> float:
    return os.path.getsize(path) / 2**20


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _parse_counts(c, args, kwargs, result, _):
    c["captions"] += _count_lines(_arg(args, kwargs, 0, "path"))
    c["rejected"] += result.rejects.count


def _map_tag_counts(c, args, kwargs, result, _):
    c["map_tag.calls"] += 1
    c["map_tag.hits"] += result is not None


def _load_embeddings_counts(c, args, kwargs, result, _):
    c["load_embeddings.mb"] += _file_mb(_arg(args, kwargs, 0, "path"))


def _kmeanspp_counts(c, args, kwargs, result, _):
    n = len(_arg(args, kwargs, 0, "points"))
    c["distance_evals"] += n * _arg(args, kwargs, 1, "k")


def _lloyd_counts(c, args, kwargs, result, _):
    n, k = len(_arg(args, kwargs, 0, "points")), len(_arg(args, kwargs, 1, "centroids"))
    c["lloyd.iterations"] += result.iterations
    c["distance_evals"] += n * k * (result.iterations + 1)


def _clean_counts(c, args, kwargs, result, duration):
    c["clean_category.ms"].append(duration * 1000.0)
    c["clean_category.skipped"] += result.skipped


def _filter_counts(c, args, kwargs, result, _):
    c["prediction_filter.removed"] += len(result.removals)
    c["prediction_filter.skipped"] += len(result.skipped_pairs)


def _merge_counts(c, args, kwargs, result, _):
    c["generate_merge.added"] += len(result[1])


def _write_counts(c, args, kwargs, result, _):
    c["write.mb"] += _file_mb(_arg(args, kwargs, 1, "path"))


def _regions_counts(c, args, kwargs, result, _):
    c["load_regions.records"] += len(result)


def _score_counts(c, args, kwargs, result, _):
    c["score.calls"] += 1


def _instances_counts(c, args, kwargs, result, _):
    c["cells"] += result.scores.size


# (module, attribute, span name, count hook): every place the program looks
# one of these functions up at call time
TARGETS: tuple[tuple[str, str, str, OnCall | None], ...] = (
    ("tagforge.caption_parser", "parse_corpus_file", "caption_parser.parse_corpus_file", _parse_counts),
    ("tagforge.data_engine", "parse_corpus_file", "caption_parser.parse_corpus_file", _parse_counts),
    ("tagforge.caption_parser", "load_lexicons", "caption_parser.load_lexicons", None),
    ("tagforge.data_engine", "load_lexicons", "caption_parser.load_lexicons", None),
    ("tagforge.label_system", "build_label_system", "label_system.build_label_system", None),
    ("tagforge.label_system", "map_tag", "label_system.map_tag", _map_tag_counts),
    ("tagforge.data_engine", "map_tag", "label_system.map_tag", _map_tag_counts),
    ("tagforge.label_system", "load_vocabulary", "label_system.load_vocabulary", None),
    ("tagforge.data_engine", "load_vocabulary", "label_system.load_vocabulary", None),
    ("tagforge.cli", "load_embeddings", "embedding_store.load_embeddings", _load_embeddings_counts),
    ("tagforge.data_engine", "load_embeddings", "embedding_store.load_embeddings", _load_embeddings_counts),
    ("tagforge.similarity_tagger", "load_embeddings", "embedding_store.load_embeddings", _load_embeddings_counts),
    ("tagforge.cli", "normalize", "embedding_store.normalize", None),
    ("tagforge.data_engine", "normalize", "embedding_store.normalize", None),
    ("tagforge.data_engine", "kmeanspp_init", "clustering.kmeanspp_init", _kmeanspp_counts),
    ("tagforge.data_engine", "lloyd", "clustering.lloyd", _lloyd_counts),
    ("tagforge.data_engine", "load_regions", "data_engine.load_regions", _regions_counts),
    ("tagforge.data_engine", "clean_category", "data_engine.clean_category", _clean_counts),
    ("tagforge.data_engine", "prediction_filter", "data_engine.prediction_filter", _filter_counts),
    ("tagforge.data_engine", "generate_merge", "data_engine.generate_merge", _merge_counts),
    ("tagforge.data_engine", "write_annotations", "data_engine.write", _write_counts),
    ("tagforge.data_engine", "write_audit", "data_engine.write", _write_counts),
    ("tagforge.data_engine", "write_stats", "data_engine.write", _write_counts),
    ("tagforge.data_engine", "run_engine", "data_engine.run_engine", None),
    ("tagforge.similarity_tagger", "calibrate_thresholds", "similarity_tagger.calibrate_thresholds", None),
    ("tagforge.similarity_tagger", "score", "similarity_tagger.score", _score_counts),
    ("tagforge.similarity_tagger", "load_label_queries", "similarity_tagger.load_label_queries", None),
    ("tagforge.data_engine", "load_label_queries", "similarity_tagger.load_label_queries", None),
    ("tagforge.metrics", "load_eval_instances", "metrics.load_eval_instances", _instances_counts),
    ("tagforge.metrics", "mean_ap", "metrics.mean_ap", None),
    ("tagforge.metrics", "precision_recall", "metrics.precision_recall", None),
)

CLI_COMMANDS = ("parse", "build-vocab", "build-queries", "tag", "eval", "engine run")

# per_layer metric names, in BENCHMARK.json order (which holds their units)
LAYER_METRICS = (
    "caption_parser.parse_corpus_file.s",
    "caption_parser.captions_per_s",
    "caption_parser.rejected",
    "caption_parser.load_lexicons.s",
    "label_system.build_label_system.s",
    "label_system.map_tag.s",
    "label_system.map_tag.calls",
    "label_system.map_tag.hit_ratio",
    "label_system.load_vocabulary.s",
    "embedding_store.load_embeddings.s",
    "embedding_store.load_embeddings.mb",
    "embedding_store.normalize.s",
    "clustering.kmeanspp_init.s",
    "clustering.lloyd.s",
    "clustering.lloyd.iterations",
    "clustering.distance_evals",
    "data_engine.load_regions.s",
    "data_engine.load_regions.records",
    "data_engine.clean_category.s",
    "data_engine.clean_category.ms.p50",
    "data_engine.clean_category.ms.p80",
    "data_engine.clean_category.skipped",
    "data_engine.prediction_filter.s",
    "data_engine.prediction_filter.removed",
    "data_engine.prediction_filter.skipped",
    "data_engine.generate_merge.s",
    "data_engine.generate_merge.added",
    "data_engine.write.s",
    "data_engine.write.mb",
    "data_engine.run_engine.self_s",
    "similarity_tagger.calibrate_thresholds.s",
    "similarity_tagger.score.s",
    "similarity_tagger.score.calls",
    "similarity_tagger.load_label_queries.s",
    "metrics.load_eval_instances.s",
    "metrics.mean_ap.s",
    "metrics.precision_recall.s",
    "metrics.cells",
    *(f"cli.{c.replace(' ', '-')}.self_s" for c in CLI_COMMANDS),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one (name index, start, end, parent index) per span, in start order
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self.reset()

    def open(self, name: str) -> int:
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([index, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, span: int) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[span][2] = end
        return end - self.spans[span][1]

    def _wrap(self, fn, name: str, on_call: OnCall | None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.close(span)
            if on_call is not None:
                on_call(tracer.counters, args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is recorded
        in self.missing instead of failing."""
        self.missing.clear()
        for module_name, attr, name, on_call in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, on_call))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans.clear()
        self.counters: dict[str, Any] = defaultdict(float)
        self.counters["clean_category.ms"] = []

    def durations(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive, self) seconds summed per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        children: list[float] = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (index, start, end, _) in enumerate(self.spans):
            inclusive[self.names[index]] += end - start
            own[self.names[index]] += end - start - children[i]
        return inclusive, own

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of one traced pass (0 where the workload
        never reached the layer)."""
        inclusive, own = self.durations()
        c = self.counters
        m = {name: 0.0 for name in LAYER_METRICS}
        for name in LAYER_METRICS:
            if name.endswith(".s") and name[:-2] in inclusive:
                m[name] = inclusive[name[:-2]]
        m["data_engine.write.s"] = inclusive.get("data_engine.write", 0.0)
        m["data_engine.run_engine.self_s"] = own.get("data_engine.run_engine", 0.0)
        for command in CLI_COMMANDS:
            m[f"cli.{command.replace(' ', '-')}.self_s"] = own.get(f"cli.{command}", 0.0)
        parse_s = inclusive.get("caption_parser.parse_corpus_file", 0.0)
        m["caption_parser.captions_per_s"] = c["captions"] / parse_s if parse_s else 0.0
        m["caption_parser.rejected"] = c["rejected"]
        calls = c["map_tag.calls"]
        m["label_system.map_tag.calls"] = calls
        m["label_system.map_tag.hit_ratio"] = c["map_tag.hits"] / calls if calls else 0.0
        m["embedding_store.load_embeddings.mb"] = c["load_embeddings.mb"]
        m["clustering.lloyd.iterations"] = c["lloyd.iterations"]
        m["clustering.distance_evals"] = c["distance_evals"]
        m["data_engine.load_regions.records"] = c["load_regions.records"]
        clean_ms = sorted(c["clean_category.ms"])
        m["data_engine.clean_category.ms.p50"] = percentile(clean_ms, 50)
        m["data_engine.clean_category.ms.p80"] = percentile(clean_ms, 80)
        m["data_engine.clean_category.skipped"] = c["clean_category.skipped"]
        m["data_engine.prediction_filter.removed"] = c["prediction_filter.removed"]
        m["data_engine.prediction_filter.skipped"] = c["prediction_filter.skipped"]
        m["data_engine.generate_merge.added"] = c["generate_merge.added"]
        m["data_engine.write.mb"] = c["write.mb"]
        m["similarity_tagger.score.calls"] = c["score.calls"]
        m["metrics.cells"] = c["cells"]
        return m

    def write_spans(self, path: Path, passes: list[list[list]]) -> None:
        """One JSON array per line: [pass, name, start, end, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "missing": self.missing,
                                 "untraced": "parse pool worker processes"}) + "\n")
            for p, spans in enumerate(passes):
                for index, start, end, parent in spans:
                    fh.write(json.dumps([p, self.names[index], round(start, 7),
                                         round(end, 7), parent]) + "\n")


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
