"""The benchmark's two workloads: their inputs, CLI commands, output
checks and quality scores.

A workload is driven in two parts. ``prepare`` writes the seeded inputs and
runs any preparation the user would do once (tag-eval builds its
vocabulary, label queries and calibrated thresholds there). ``commands``
lists the tagforge CLI commands a user runs on those inputs; their wall time
is what ``images_per_s`` measures. The first pass over the commands, at
one worker, is the reference: ``before`` hooks generate the inputs that
depend on the vocabulary the program just built, and every later pass
must reproduce the reference outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import synth

REJECTS_RE = re.compile(r"(\d+) rejected records")


@dataclass
class Command:
    name: str  # as a user types it after "tagforge", e.g. "engine run"
    argv: list[str]


# runs one CLI command and returns (exit code, stdout, stderr)
RunCli = Callable[[Command], tuple[int, str, str]]


def digest_tree(out: Path) -> dict[str, str]:
    """sha256 of every file under out, keyed by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def compare_outputs(reference: Path, out: Path) -> list[str]:
    """Problems found comparing out with the reference, file by file."""
    want, got = digest_tree(reference), digest_tree(out)
    problems = [f"missing output {name}" for name in sorted(set(want) - set(got))]
    problems += [f"unexpected output {name}" for name in sorted(set(got) - set(want))]
    problems += [
        f"{name} differs from the workers=1 reference"
        for name in sorted(set(want) & set(got))
        if want[name] != got[name]
    ]
    return problems


def read_pairs(path: Path, field: str) -> set[tuple[str, int]]:
    """(image_id, tag_id) pairs of an annotation ("tags" of dicts) or
    prediction ("tags" of ints) JSONL file."""
    pairs = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        for tag in obj[field]:
            pairs.add((obj["image_id"], tag["tag_id"] if isinstance(tag, dict) else int(tag)))
    return pairs


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Workload:
    name = ""
    images = 0  # images the timed commands process, the base of images_per_s
    records = 0  # input records the timed commands read, the base of failed_ratio

    def __init__(self, inputs: Path, seed: int, scale: float):
        self.inputs, self.seed, self.scale = inputs, seed, scale

    def prepare(self, run: RunCli) -> None:
        raise NotImplementedError

    def commands(self, out: Path, workers: int) -> list[Command]:
        raise NotImplementedError

    def before(self, command: str, out: Path) -> None:
        """Generation hook, called before each reference command."""

    def check_reference(self, out: Path, run: RunCli) -> list[str]:
        """Invariants of the reference outputs beyond byte identity."""
        return []

    def quality(self, out: Path) -> dict[str, float]:
        raise NotImplementedError

    def probe_files(self, out: Path) -> tuple[Path, Path]:
        """(vocabulary, label queries) that a fresh process loads at set-up."""
        raise NotImplementedError


class EngineClean(Workload):
    """parse -> build-vocab -> build-queries -> engine run, as a user runs
    the full engine on a fresh caption corpus."""

    name = "engine-clean"
    top_k = 10000

    def prepare(self, run: RunCli) -> None:
        self.corpus = synth.EngineCleanCorpus(self.inputs, self.seed, self.scale)
        self.corpus.write_captions()
        self.images = self.corpus.n_images

    def commands(self, out: Path, workers: int) -> list[Command]:
        i = self.inputs
        return [
            Command("parse", [
                "parse", "--captions", str(i / "captions.jsonl"), "--out-tags",
                str(out / "tags.jsonl"), "--out-freq", str(out / "freq.tsv"),
                "--workers", str(workers),
            ]),
            Command("build-vocab", [
                "build-vocab", "--freq", str(out / "freq.tsv"), "--k", str(self.top_k),
                "--out", str(out / "vocab.tsv"),
            ]),
            Command("build-queries", [
                "build-queries", "--vocab", str(out / "vocab.tsv"), "--prompts",
                str(i / "prompts.emb"), "--out", str(out / "queries.emb"),
            ]),
            Command("engine run", [
                "engine", "run", "--config", str(i / "engine.cfg"), "--vocab",
                str(out / "vocab.tsv"), "--queries", str(out / "queries.emb"),
                "--out-dir", str(out / "engine"), "--workers", str(workers),
            ]),
        ]

    def before(self, command: str, out: Path) -> None:
        if command == "build-queries":
            self.corpus.write_prompts(out / "vocab.tsv")
        elif command == "engine run":
            self.corpus.write_engine_inputs(out / "vocab.tsv")
            self.records = self.corpus.records
            surface_to_id, _ = synth.read_vocabulary(out / "vocab.tsv")
            self.true_pairs, self.false_pairs = self.corpus.truth.resolve(surface_to_id)

    def check_reference(self, out: Path, run: RunCli) -> list[str]:
        import tagforge.data_engine as de

        engine = out / "engine"
        problems = []
        replayed = de.replay_audit(
            de.load_annotations(engine / "parsed.jsonl"), de.load_audit(engine / "audit.jsonl")
        )
        if replayed != de.kept_pairs(de.load_annotations(engine / "final.jsonl")):
            problems.append("replaying audit.jsonl over parsed.jsonl does not give final.jsonl")
        code, _, err = run(Command("stats", ["stats", "--stats-file", str(engine / "stats.tsv")]))
        if code != 0 or "conservation: ok" not in err:
            problems.append(f"tagforge stats conservation check failed: {err.strip()[-200:]}")
        return problems

    def quality(self, out: Path) -> dict[str, float]:
        final = read_pairs(out / "engine" / "final.jsonl", "tags")
        return {
            "true_pair_recall": share(len(self.true_pairs & final), len(self.true_pairs)),
            "false_pair_removal": share(len(self.false_pairs - final), len(self.false_pairs)),
        }

    def probe_files(self, out: Path) -> tuple[Path, Path]:
        return out / "vocab.tsv", out / "queries.emb"


class TagEval(Workload):
    """Calibrate per-tag thresholds on a held-out split (preparation), then
    tag the test images and evaluate them against the ground truth."""

    name = "tag-eval"
    GRID = tuple(round(0.05 + 0.01 * i, 2) for i in range(56))

    def prepare(self, run: RunCli) -> None:
        i = self.inputs
        self.corpus = c = synth.TagEvalCorpus(i, self.seed, self.scale)
        c.write_frequencies()
        steps = [
            Command("build-vocab", ["build-vocab", "--freq", str(i / "freq.tsv"), "--k",
                                    str(c.TAGS), "--out", str(i / "vocab.tsv")]),
            Command("build-queries", ["build-queries", "--vocab", str(i / "vocab.tsv"),
                                      "--prompts", str(i / "prompts.emb"),
                                      "--out", str(i / "queries.emb")]),
            Command("tag", ["tag", "--embeddings", str(i / "heldout.emb"), "--queries",
                            str(i / "queries.emb"), "--vocab", str(i / "vocab.tsv"),
                            "--out", str(i / "heldout_predictions.jsonl")]),
        ]
        for step in steps:
            if step.name == "build-queries":
                c.write_prompts(i / "vocab.tsv")
            elif step.name == "tag":
                c.write_images(i / "vocab.tsv")
            code, _, err = run(step)
            if code != 0:
                raise RuntimeError(f"preparation step {step.name!r} failed: {err.strip()[-300:]}")
        self.calibrate()
        self.images = c.n_images
        self.records = c.records
        self.tag_count = c.TAGS

    def calibrate(self) -> None:
        """Grid-search per-tag thresholds on the held-out predictions,
        calling tagforge's calibrator through its module attribute."""
        import tagforge.similarity_tagger as st

        rows = [json.loads(l) for l in (self.inputs / "heldout_predictions.jsonl").read_text().splitlines()]
        tag_ids = sorted(int(t) for t in rows[0]["scores"])
        scores = np.asarray([[r["scores"][str(t)] for t in tag_ids] for r in rows])
        labels = np.zeros(scores.shape, dtype=np.int8)
        col = {t: j for j, t in enumerate(tag_ids)}
        for r, row in enumerate(rows):
            for t in self.corpus.heldout_positives[row["image_id"]]:
                labels[r, col[t]] = 1
        profile = st.calibrate_thresholds(scores, labels, tag_ids, self.GRID)
        st.save_threshold_profile(profile, self.inputs / "thresholds.tsv")

    def commands(self, out: Path, workers: int) -> list[Command]:
        i = self.inputs
        return [
            Command("tag", [
                "tag", "--embeddings", str(i / "images.emb"), "--queries", str(i / "queries.emb"),
                "--vocab", str(i / "vocab.tsv"), "--thresholds", str(i / "thresholds.tsv"),
                "--out", str(out / "predictions.jsonl"), "--workers", str(workers),
            ]),
            Command("eval", [
                "eval", "--predictions", str(out / "predictions.jsonl"), "--ground-truth",
                str(i / "gt.jsonl"), "--thresholds", str(i / "thresholds.tsv"),
                "--out", str(out / "report.tsv"), "--workers", str(workers),
            ]),
        ]

    def quality(self, out: Path) -> dict[str, float]:
        predicted = read_pairs(out / "predictions.jsonl", "tags")
        positives = {(i, t) for i, tags in self.corpus.positives.items() for t in tags}
        negatives = self.images * self.tag_count - len(positives)
        report = {}
        for line in (out / "report.tsv").read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                key, value = line[1:].split("\t")
                report[key] = float(value)
        p, r = report["micro_precision"], report["micro_recall"]
        return {
            "true_pair_recall": share(len(positives & predicted), len(positives)),
            "false_pair_removal": 1.0 - share(len(predicted - positives), negatives),
            "map": report["mAP"],
            "micro_f1": 2 * p * r / (p + r) if p + r else 0.0,
        }

    def probe_files(self, out: Path) -> tuple[Path, Path]:
        return self.inputs / "vocab.tsv", self.inputs / "queries.emb"


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (EngineClean, TagEval)}


def parse_rejects(stderr: str) -> int | None:
    match = REJECTS_RE.search(stderr)
    return int(match.group(1)) if match else None
