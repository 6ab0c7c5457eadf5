"""tagforge benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload engine-clean --seed 1 --seconds 45 --trace 0

Run from the root of a repository checkout. The workload's inputs are
generated from --seed, then its tagforge CLI commands run once at one
worker as the reference and again at two workers, as child processes, until
--seconds have passed. Every pass must reproduce the reference outputs byte
for byte; the reference must also replay its audit and pass ``tagforge
stats``, and its quality scores must match those recorded for the seed in
quality.json, if any.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 runs
the same commands in-process, alternating untraced and traced passes, and
reports the per-layer metrics plus the tracing overhead. The human-readable
report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
QUALITY_RECORD = BENCH_DIR / "quality.json"

WORKERS = 2  # nproc of the 2-core machines the workloads were sized on
SETUP_PROBES_PER_PASS = 2
COMMAND_TIMEOUT_S = 150
# one BLAS thread per process: tagforge's matrices are small, and idle BLAS
# threads spinning beside the parse pool's two workers would oversubscribe
# the two cores
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# a fresh process pays this before any command does work
SETUP_PROBE = """\
import sys
from tagforge.caption_parser import load_lexicons
from tagforge.label_system import load_vocabulary
from tagforge.similarity_tagger import load_label_queries
load_lexicons()
load_label_queries(sys.argv[2], load_vocabulary(sys.argv[1]))
"""


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    wall_s: float = 0.0
    rss_mb: float = 0.0


class ChildRunner:
    """Runs tagforge commands as child processes, the way a user does,
    and reports each one's wall time and peak RSS. The RSS comes from
    wait4, which covers the child and every descendant it reaped, so parse
    pool workers count."""

    def __init__(self, logs: Path):
        self.logs = logs
        logs.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(SRC)}

    def run_argv(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.logs / "stdout", self.logs / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=ROOT, start_new_session=True
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            wall,
            usage.ru_maxrss / 1024.0,
        )

    def __call__(self, command) -> tuple[int, str, str]:
        o = self.tagforge(command)
        return o.code, o.stdout, o.stderr

    def tagforge(self, command) -> Outcome:
        return self.run_argv([sys.executable, "-m", "tagforge.cli", *command.argv])


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


@dataclass
class Reference:
    out: Path
    stdouts: dict[str, str]
    quality: dict[str, float]
    problems: list[str] = field(default_factory=list)


def build_reference(workload, run: ChildRunner, work: Path, record_quality: bool) -> Reference:
    """Generate the inputs and run the commands once at one worker."""
    workload.prepare(run)
    out = work / "reference"
    out.mkdir()
    stdouts = {}
    for command in workload.commands(out, workers=1):
        workload.before(command.name, out)
        code, stdout, stderr = run(command)
        if code != 0:
            raise BenchmarkError(f"reference {command.name!r} exited {code}: {stderr.strip()[-500:]}")
        stdouts[command.name] = stdout
    problems = workload.check_reference(out, run)
    quality = workload.quality(out)
    seed = str(workload.seed)
    record = json.loads(QUALITY_RECORD.read_text()) if QUALITY_RECORD.is_file() else {}
    if record_quality:
        record.setdefault(workload.name, {})[seed] = quality
        QUALITY_RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    expected = record.get(workload.name, {}).get(seed) if workload.scale == 1.0 else None
    if expected is not None and expected != quality:
        problems.append(f"quality {quality} differs from the values recorded for seed {seed}: {expected}")
    return Reference(out, stdouts, quality, problems)


def check_pass(workload, reference: Reference, out: Path, stdouts: dict, stderrs: dict) -> list[str]:
    from workloads import compare_outputs, parse_rejects

    problems = compare_outputs(reference.out, out)
    problems += [
        f"{name} printed other stdout than the reference"
        for name, text in stdouts.items()
        if text != reference.stdouts[name]
    ]
    if "parse" in stderrs:
        rejects = parse_rejects(stderrs["parse"])
        if rejects:
            problems.append(f"parse rejected {rejects} records; every generated caption is well formed")
    return problems


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- trace 0: end to end ----------------------------------------------------------


def end_to_end(workload, run: ChildRunner, reference: Reference, work: Path, seconds: float):
    vocab, queries = workload.probe_files(reference.out)
    probes = []

    def probe_setup(times: int) -> None:
        for _ in range(times):
            o = run.run_argv([sys.executable, "-c", SETUP_PROBE, str(vocab), str(queries)])
            if o.code != 0:
                raise BenchmarkError(f"set-up probe failed: {o.stderr.strip()[-500:]}")
            probes.append(o.wall_s)

    # probes are spread over the run, so one slow spell of the machine
    # does not decide their median
    probe_setup(SETUP_PROBES_PER_PASS)
    walls, rss, per_command = [], [], {}
    attempted = failed = 0
    problems = list(reference.problems)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        out = fresh(work / "run")
        outcomes = {c.name: run.tagforge(c) for c in workload.commands(out, WORKERS)}
        crashed = [f"{n} exited {o.code}: {o.stderr.strip()[-300:]}" for n, o in outcomes.items() if o.code]
        pass_problems = crashed or check_pass(
            workload, reference, out,
            {n: o.stdout for n, o in outcomes.items()}, {n: o.stderr for n, o in outcomes.items()},
        )
        attempted += workload.records
        failed += workload.records if pass_problems or reference.problems else 0
        problems += pass_problems
        walls.append(sum(o.wall_s for o in outcomes.values()))
        rss.append(max(o.rss_mb for o in outcomes.values()))
        for n, o in outcomes.items():
            per_command.setdefault(n, []).append(o.wall_s)
        probe_setup(SETUP_PROBES_PER_PASS)

    metrics = {
        "images_per_s": (workload.images / median(walls), len(walls)),
        "peak_rss_mb": (max(rss), len(rss)),
        "setup_s": (median(probes), len(probes)),
        "true_pair_recall": (reference.quality["true_pair_recall"], 1),
        "false_pair_removal": (reference.quality["false_pair_removal"], 1),
    }
    info = {f"command.{n.replace(' ', '-')}.median_s": (median(w), len(w), "s") for n, w in per_command.items()}
    info["pass_walls_s"] = (",".join(f"{w:.3f}" for w in walls), len(walls), "s")
    info["failed_ratio"] = (failed / attempted, len(walls), "ratio")
    for name in ("map", "micro_f1"):
        info[name] = (reference.quality.get(name, "n/a"), 1, "ratio")
    return metrics, info, attempted, failed, problems


# -- trace 1: per layer -----------------------------------------------------------


def in_process_pass(workload, reference: Reference, out: Path, tracer=None):
    """Run the workload's commands in this process; returns (CLI wall
    seconds, problems). Tag-eval's calibration runs first, outside the
    timed CLI commands, as in its preparation."""
    import tagforge.caption_parser as cp
    import tagforge.cli as tagforge_cli

    if hasattr(workload, "calibrate"):
        workload.calibrate()
    stdouts, stderrs, problems, wall = {}, {}, [], 0.0
    for command in workload.commands(out, WORKERS):
        # a fresh process would load the lexicons again
        getattr(cp, "_LEXICON_CACHE", {}).clear()
        out_buf, err_buf = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        span = tracer.open(f"cli.{command.name}") if tracer else None
        try:
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                tagforge_cli.cli.main(args=command.argv, prog_name="tagforge", standalone_mode=False)
        except Exception as exc:  # a failing command is reported, the pass goes on
            problems.append(f"{command.name} raised {type(exc).__name__}: {exc}")
        finally:
            if tracer:
                tracer.close(span)
        wall += time.perf_counter() - start
        stdouts[command.name], stderrs[command.name] = out_buf.getvalue(), err_buf.getvalue()
    return wall, problems or check_pass(workload, reference, out, stdouts, stderrs)


def per_layer(workload, reference: Reference, work: Path, seconds: float):
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced, layer_passes, span_passes, self_passes = [], [], [], [], []
    attempted = failed = 0
    problems = list(reference.problems)
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # alternate which side goes first, so warm-up favours neither
        order = ((untraced, False), (traced, True))
        for walls, tracing in order if len(traced) % 2 == 0 else order[::-1]:
            out = fresh(work / "run")
            tracer.reset()
            if tracing:
                tracer.install()
            try:
                wall, pass_problems = in_process_pass(workload, reference, out, tracer if tracing else None)
            finally:
                tracer.uninstall()
            walls.append(wall)
            attempted += workload.records
            failed += workload.records if pass_problems or reference.problems else 0
            problems += pass_problems
            if tracing:
                layer_passes.append(tracer.layer_metrics())
                span_passes.append(list(tracer.spans))
                self_passes.append(dict(tracer.durations()[1]))

    spans_path = WORK / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write_spans(spans_path, span_passes)
    metrics = {
        name: (median([p[name] for p in layer_passes]), len(layer_passes))
        for name in layer_passes[0]
    }
    metrics["trace.overhead_images_per_s"] = (
        workload.images / median(traced) - workload.images / median(untraced), len(traced)
    )
    names = sorted({n for p in self_passes for n in p})
    info = {f"self_s.{n.replace(' ', '-')}": (median([p.get(n, 0.0) for p in self_passes]), len(self_passes), "s") for n in names}
    info["images_per_s.traced"] = (workload.images / median(traced), len(traced), "images/s")
    info["images_per_s.untraced"] = (workload.images / median(untraced), len(untraced), "images/s")
    info["failed_ratio"] = (failed / attempted, len(traced) + len(untraced), "ratio")
    info["spans"] = (str(spans_path.relative_to(ROOT)), sum(map(len, span_passes)), "file")
    info["untraced"] = ("parse pool worker processes", 0, "-")
    info["missing_targets"] = (",".join(tracer.missing) or "none", len(tracer.missing), "-")
    return metrics, info, attempted, failed, problems


# -- reporting ----------------------------------------------------------------------


def blas_setting() -> str:
    return ",".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREADS)


def report(args, declared: list[dict], metrics: dict, info: dict, attempted: int, failed: int,
           problems: list[str]) -> dict:
    import numpy

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print(f"environment nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads={blas_setting()} workers={WORKERS}")
    result = {}
    for spec in declared:
        value, samples = metrics[spec["name"]]
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"metric {spec['name']} {value!r} {spec['unit']} n={samples}")
    for name, (value, samples, unit) in info.items():
        print(f"info {name} {value!r} {unit} n={samples}")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": result}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; quality records apply at 1.0 only")
    parser.add_argument("--record-quality", action="store_true",
                        help="store this seed's quality scores in quality.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    os.environ.update(BLAS_THREADS)  # before anything loads numpy
    args = parse_args(argv)
    if not (SRC / "tagforge" / "cli.py").is_file():
        print(f"perfbench: no tagforge sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    work = fresh(WORK / f"{args.workload}-seed{args.seed}")
    try:
        run = ChildRunner(work / "logs")
        workload = WORKLOADS[args.workload](fresh(work / "inputs"), args.seed, args.scale)
        reference = build_reference(workload, run, work, args.record_quality)
        if args.trace:
            results = per_layer(workload, reference, work, args.seconds)
        else:
            results = end_to_end(workload, run, reference, work, args.seconds)
        line = report(args, declared, *results)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
