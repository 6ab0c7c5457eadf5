"""Multi-label evaluation: per-class average precision, mAP, and
precision/recall at threshold.

AP is the non-interpolated variant: precision summed at each positive rank,
divided by the positive count. Items rank by score descending; ties keep
input order, and NaN ranks after every number, as a stable argsort of
-scores orders them. Only the positives' ranks are computed: a positive's
rank is 1 + the items scoring higher (a binary search in the sorted scores)
+ the items scoring equal that come earlier in input order (counted only
for positives that tie). With the P ranks sorted, AP is
sum(arange(1, P + 1) / ranks) / P.

Unannotated ground truth defaults to negative; a flag excludes those cells
per class instead. A class filter narrows mAP and precision/recall alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import jsonl
from .errors import TagforgeError
from .similarity_tagger import ThresholdProfile, read_score_sidecar

LABEL_POSITIVE = 1
LABEL_NEGATIVE = 0
LABEL_UNANNOTATED = -1

MISSING_SCORE = -np.inf  # absent prediction ranks last and never crosses a threshold


class MetricsError(TagforgeError):
    pass


def average_precision(scores: Sequence[float], labels: Sequence[int]) -> float | None:
    """AP of one ranking; None signals "not evaluable" (no positives).

    Items are ranked by score descending, ties keeping input order and NaN
    last. AP is (1/P) * sum over positive ranks k of precision@k.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricsError("scores and labels must be congruent 1-d sequences")
    positive = labels == 1
    positives = int(np.count_nonzero(positive))
    if positives == 0:
        return None
    keys = -scores
    ordered = np.sort(keys)  # NaN last, where argsort puts it
    positive_keys = keys[positive]
    ranks = np.searchsorted(ordered, positive_keys, "left")  # items ranked ahead
    tied = np.searchsorted(ordered, positive_keys, "right") - ranks > 1
    ranks += 1
    if tied.any():
        ranks[tied] += _earlier_ties(keys, np.flatnonzero(positive)[tied])
    ranks.sort()
    return float((np.arange(1, positives + 1) / ranks).sum() / positives)


def _earlier_ties(keys: np.ndarray, items: np.ndarray) -> np.ndarray:
    """For each of items (ascending indices into keys), how many earlier
    indices hold an equal key; NaN equals NaN here, as sorting groups them."""
    values = keys[items]
    nan = np.isnan(values)
    earlier = np.empty(len(items), dtype=np.intp)
    for value in set(values[~nan].tolist()):  # -0.0 and 0.0 are one value
        group = values == value
        earlier[group] = np.searchsorted(np.flatnonzero(keys == value), items[group])
    if nan.any():
        earlier[nan] = np.searchsorted(np.flatnonzero(np.isnan(keys)), items[nan])
    return earlier


@dataclass
class EvalInstances:
    """Scores and {positive, negative, unannotated} labels per (image, class)."""

    image_ids: list[str]
    class_ids: list[int]
    scores: np.ndarray  # (n_images, n_classes) float64
    labels: np.ndarray  # (n_images, n_classes) int8: 1 / 0 / -1

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.scores.shape != self.labels.shape:
            raise MetricsError("scores and labels must be congruent")
        if self.scores.shape != (len(self.image_ids), len(self.class_ids)):
            raise MetricsError("matrix shape must match image and class id counts")
        if len(self.class_ids) < 1:
            raise MetricsError("at least one class is required")


@dataclass
class EvalReport:
    per_class_ap: dict[int, float]
    mean_ap: float
    micro_precision: float
    micro_recall: float
    macro_precision: float
    macro_recall: float
    evaluated_classes: int
    skipped_classes: list[tuple[int, str]] = field(default_factory=list)


def mean_ap(
    instances: EvalInstances,
    class_filter: set[int] | None = None,
    unannotated_as_negative: bool = True,
) -> tuple[dict[int, float], float, list[tuple[int, str]]]:
    """Per-class AP and their unweighted mean over evaluable classes.

    Classes are skipped (and listed with a reason) when excluded by the
    filter or when they have no positives after unannotated handling.
    """
    per_class: dict[int, float] = {}
    skipped: list[tuple[int, str]] = []
    for c, class_id in enumerate(instances.class_ids):
        if class_filter is not None and class_id not in class_filter:
            skipped.append((class_id, "excluded by filter"))
            continue
        col_scores = instances.scores[:, c]
        col_labels = instances.labels[:, c]
        if not unannotated_as_negative:
            annotated = col_labels != LABEL_UNANNOTATED
            col_scores, col_labels = col_scores[annotated], col_labels[annotated]
        ap = average_precision(col_scores, col_labels)  # LABEL_POSITIVE is 1
        if ap is None:
            skipped.append((class_id, "no positives"))
        else:
            per_class[class_id] = ap
    if not per_class:
        raise MetricsError("all classes were skipped; nothing to evaluate")
    return per_class, float(np.mean(list(per_class.values()))), skipped


@dataclass
class PrecisionRecall:
    micro_precision: float
    micro_recall: float
    macro_precision: float
    macro_recall: float


def _ratio(num: int, denom: int) -> float:
    # 0/0 counts as perfect by convention (no predictions -> no mistakes)
    return num / denom if denom else 1.0


def precision_recall(
    instances: EvalInstances,
    profile: ThresholdProfile,
    unannotated_as_negative: bool = True,
    class_filter: set[int] | None = None,
) -> PrecisionRecall:
    """Micro and macro precision/recall at the profile's thresholds, over
    the classes in class_filter (every class when it is None).

    Micro aggregates TP/FP/FN over every (image, class) cell. Macro averages
    per-class precision and recall over classes with at least one positive;
    a class with zero predicted positives contributes precision 1.
    """
    class_ids, scores, labels = instances.class_ids, instances.scores, instances.labels
    if class_filter is not None:
        kept = [c for c, class_id in enumerate(class_ids) if class_id in class_filter]
        class_ids, scores, labels = [class_ids[c] for c in kept], scores[:, kept], labels[:, kept]
    predicted = scores >= profile.thresholds(class_ids)[None, :]
    positive = labels == LABEL_POSITIVE
    if not unannotated_as_negative:
        annotated = labels != LABEL_UNANNOTATED
        predicted &= annotated
        positive &= annotated

    # per-class counts of counted cells: true positives, predicted, positive
    tps = np.count_nonzero(predicted & positive, axis=0).tolist()
    predicteds = np.count_nonzero(predicted, axis=0).tolist()
    positives = np.count_nonzero(positive, axis=0).tolist()

    micro_p = _ratio(sum(tps), sum(predicteds))
    micro_r = _ratio(sum(tps), sum(positives))

    macro_ps: list[float] = []
    macro_rs: list[float] = []
    for tp, predicted_count, pos in zip(tps, predicteds, positives):
        if pos == 0:
            continue
        macro_ps.append(_ratio(tp, predicted_count))
        macro_rs.append(tp / pos)
    if not macro_ps:
        raise MetricsError("no class has a positive ground-truth label")
    return PrecisionRecall(
        micro_precision=micro_p,
        micro_recall=micro_r,
        macro_precision=float(np.mean(macro_ps)),
        macro_recall=float(np.mean(macro_rs)),
    )


def evaluate(
    instances: EvalInstances,
    profile: ThresholdProfile,
    class_filter: set[int] | None = None,
    unannotated_as_negative: bool = True,
) -> EvalReport:
    per_class, map_value, skipped = mean_ap(instances, class_filter, unannotated_as_negative)
    pr = precision_recall(instances, profile, unannotated_as_negative, class_filter)
    return EvalReport(
        per_class_ap=per_class,
        mean_ap=map_value,
        micro_precision=pr.micro_precision,
        micro_recall=pr.micro_recall,
        macro_precision=pr.macro_precision,
        macro_recall=pr.macro_recall,
        evaluated_classes=len(per_class),
        skipped_classes=skipped,
    )


# -- file interfaces ----------------------------------------------------------


def load_eval_instances(predictions_path: str | Path, ground_truth_path: str | Path) -> EvalInstances:
    """Build the evaluation matrices from prediction and ground-truth JSONL.

    Predictions: {"image_id": ..., "scores": {tag_id: score}}.
    Ground truth: {"image_id": ..., "positive": [...], "negative": [...]},
    both lists optional; classes absent from both are unannotated. Repeated
    image_ids keep the last record. Scores absent for a known class rank last.
    The predictions' scores come from the binary sidecar `tag` wrote beside
    them when read_score_sidecar trusts it, which gives the same matrices.
    """
    # records that repeat the previous record's keys share its class-id list
    keys: list[str] | None = None
    class_list: list[int] = []
    keep: list[int] | None = None

    def prediction(obj) -> tuple[str, tuple[list[int], np.ndarray]]:
        nonlocal keys, class_list, keep
        image_id = _image_id(obj)
        raw = obj["scores"]
        if not isinstance(raw, dict):
            raise TypeError("scores must be an object")
        if list(raw) != keys:
            keys = list(raw)
            class_list, keep = _class_ids(keys)
        values = _score_values(raw)
        return image_id, (class_list, values if keep is None else values[keep])

    def ground_truth(obj) -> tuple[str, tuple[set[int], set[int]]]:
        image_id = _image_id(obj)
        positive, negative = _label_set(obj, "positive"), _label_set(obj, "negative")
        return image_id, (positive - negative, negative)  # a class in both is negative

    # (class ids, image ids, their scores) per class-id list of the predictions
    pred: list[tuple[list[int], list[str], np.ndarray]] = []
    sidecar = read_score_sidecar(predictions_path)
    if sidecar is None:
        groups: dict[int, tuple[list[int], list[str], list[np.ndarray]]] = {}
        for image_id, (ids, values) in dict(
            jsonl.read(predictions_path, "prediction", prediction, MetricsError)
        ).items():
            group = groups.setdefault(id(ids), (ids, [], []))
            group[1].append(image_id)
            group[2].append(values)
        pred = [(ids, images, np.stack(rows)) for ids, images, rows in groups.values()]
    else:
        sidecar_ids, class_list, matrix = sidecar
        last = {image_id: i for i, image_id in enumerate(sidecar_ids)}  # the last row wins
        if last:  # a sidecar of no image names no class, as a JSONL of no record
            rows = list(last.values())
            pred = [(class_list, list(last), matrix if len(rows) == len(matrix) else matrix[rows])]
    gt = dict(jsonl.read(ground_truth_path, "ground-truth", ground_truth, MetricsError))

    image_ids = sorted(set(gt).union(*(images for _, images, _ in pred)))
    class_set: set[int] = set()
    for ids, _, _ in pred:
        class_set.update(ids)
    for positive, negative in gt.values():
        class_set.update(positive)
        class_set.update(negative)
    if not class_set:
        raise MetricsError("no classes found in predictions or ground truth")
    class_ids = sorted(class_set)
    col = {cid: i for i, cid in enumerate(class_ids)}
    row = {image_id: r for r, image_id in enumerate(image_ids)}

    # one scatter per class-id list: every image's scores at once
    scores = np.full((len(image_ids), len(class_ids)), MISSING_SCORE, dtype=np.float64)
    for ids, images, values in pred:
        scores[
            np.asarray([row[image_id] for image_id in images], dtype=np.intp)[:, None],
            np.asarray([col[cid] for cid in ids], dtype=np.intp),
        ] = values
    # and one scatter of every label; an image's two lists share no class
    label_rows: list[int] = []
    label_ids: list[int] = []
    label_values: list[int] = []
    for image_id, (positive, negative) in gt.items():
        label_rows += [row[image_id]] * (len(positive) + len(negative))
        label_ids += [*positive, *negative]
        label_values += [LABEL_POSITIVE] * len(positive) + [LABEL_NEGATIVE] * len(negative)
    labels = np.full((len(image_ids), len(class_ids)), LABEL_UNANNOTATED, dtype=np.int8)
    labels[
        np.asarray(label_rows, dtype=np.intp),
        np.asarray([col[cid] for cid in label_ids], dtype=np.intp),
    ] = np.asarray(label_values, dtype=np.int8)
    return EvalInstances(image_ids, class_ids, scores, labels)


def _image_id(obj) -> str:
    image_id = obj["image_id"]
    if not isinstance(image_id, str):
        raise TypeError("image_id must be a string")
    return image_id


def _label_set(obj, field: str) -> set[int]:
    """A ground-truth record's class ids under field; a list, else TypeError
    (a string would otherwise be read digit by digit)."""
    values = obj.get(field, [])
    if not isinstance(values, list):
        raise TypeError(f"{field} must be a list")
    return set(map(int, values))


def _class_ids(keys: list[str]) -> tuple[list[int], list[int] | None]:
    """Class ids of a record's score keys, and when two keys name the same
    class (say "1" and "01"), the positions to keep: the last of each."""
    ids = [int(k) for k in keys]
    last = {cid: i for i, cid in enumerate(ids)}
    if len(last) == len(ids):
        return ids, None
    keep = sorted(last.values())
    return [ids[i] for i in keep], keep


def _score_values(raw: dict) -> np.ndarray:
    """A record's scores as float64, as float(v) converts each value."""
    try:
        values = np.array(list(raw.values()))
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is None or values.dtype != np.float64 or values.ndim != 1:
        values = np.array([float(v) for v in raw.values()], dtype=np.float64)
    return values


def write_report(report: EvalReport, path: str | Path) -> None:
    """Per-class TSV table followed by a '#'-prefixed summary block."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("class_id\tap\n")
        for class_id in sorted(report.per_class_ap):
            fh.write(f"{class_id}\t{report.per_class_ap[class_id]:.6f}\n")
        for class_id, reason in report.skipped_classes:
            fh.write(f"{class_id}\tskipped: {reason}\n")
        fh.write(f"#mAP\t{report.mean_ap:.6f}\n")
        fh.write(f"#evaluated_classes\t{report.evaluated_classes}\n")
        fh.write(f"#micro_precision\t{report.micro_precision:.6f}\n")
        fh.write(f"#micro_recall\t{report.micro_recall:.6f}\n")
        fh.write(f"#macro_precision\t{report.macro_precision:.6f}\n")
        fh.write(f"#macro_recall\t{report.macro_recall:.6f}\n")
