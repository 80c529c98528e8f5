"""Measurement passes behind `run.py`.

`measure` gives the end-to-end metrics of an untraced run, whose ops are
spread over WORKERS fresh processes; `trace` gives the per-layer metrics of
a separate traced run in one process.  Every op's verdict is checked in
both, and every op that does not verify is counted by label.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# Untraced runs spread their ops over this many fresh processes, one after
# another.  A process keeps its memory layout for life, and on the reference
# host that alone moved a 150-op loop by about 9% from process to process,
# against 3% between passes inside one process; each process also yields
# one set-up time.  Odd, so that every worker gets both configs of the
# alternating workloads.
WORKERS = 3
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("sample_p50_s", "s"),
    ("sample_tail_s", "s"),
    ("verified_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Pass:
    """One pass over an op list: when each op ran and how it ended."""

    meter: hostspeed.Speedometer
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    notes: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.starts)

    @property
    def verified(self) -> int:
        return self.outcomes[workloads.VERIFIED]

    @property
    def failed(self) -> int:
        """Ops that completed without closing, or raised an unexpected error."""
        return sum(n for label, n in self.outcomes.items() if label.startswith(("open:", "error:")))

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def speed(self) -> float:
        """Factor from measured to reference-host seconds over this pass."""
        return self.meter.factor(self.starts[0], self.ends[-1])


def run_checked(wl: workloads.Workload, ctx, op) -> tuple[str, str | None]:
    """wl.run, with any exception it does not classify itself labelled
    `error:<Class>` and its traceback reported."""
    try:
        return wl.run(ctx, op)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return "error:" + type(exc).__name__, None


def prepare(wl: workloads.Workload, seed: int, seconds: float):
    """Everything before the first timed op: config parse, working radii and
    Riemann constants where used, the op list, and the warm-up ops."""
    ctx = wl.setup()
    ops = wl.draw(ctx, seed, wl.n_ops(seconds))
    for op in wl.warmup(ctx):
        label, _ = run_checked(wl, ctx, op)
        if label.startswith("error:"):
            raise RuntimeError(f"warm-up op failed with {label}")
    return ctx, ops


def timed_pass(wl, ctx, ops, meter: hostspeed.Speedometer, tracer: tracing.Tracer | None = None) -> Pass:
    """Run `ops` once, timing each op and sampling host speed between ops."""
    p = Pass(meter)
    run = run_checked if tracer is None else tracer.wrap(run_checked, tracing.ROOT_SPAN)
    meter.sample()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = hostspeed.now()
        label, note = run(wl, ctx, op)
        t1 = hostspeed.now()
        meter.keep_up()
        p.starts.append(t0)
        p.ends.append(t1)
        p.outcomes[label] += 1
        if note is not None:
            p.notes[note] += 1
    meter.sample()
    return p


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker(wl: workloads.Workload, seed: int, seconds: float, index: int, count: int) -> dict:
    """Set up, then time ops index, index + count, ... of the op list.

    Runs in a fresh process started by `measure`; the dict goes back to it
    as JSON.  Taking every count-th op keeps the configs alternating and the
    strata spread in every worker."""
    ctx, ops = prepare(wl, seed, seconds)
    ready = hostspeed.now()
    rss_setup = peak_rss_mb()
    meter = hostspeed.Speedometer()
    p = timed_pass(wl, ctx, ops[index::count], meter)
    # Untimed, after the ops, so the peak includes all memory they kept.
    wl.deep_track(ctx)
    return {
        "ready": ready, "rss_setup_mb": rss_setup, "rss_mb": peak_rss_mb(),
        "starts": p.starts, "ends": p.ends, "outcomes": dict(p.outcomes), "notes": dict(p.notes),
        "chunk_times": meter.times, "chunks": meter.chunks,
    }


def _spawn_worker(wl, seed: int, seconds: float, index: int, count: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", wl.name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--worker", f"{index}/{count}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index}/{count} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten ops beyond it, if above the median."""
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p if p > 50 else None


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: list[str]

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _outcome_lines(p: Pass) -> list[str]:
    lines = [f"  outcomes: {p.verified}/{p.attempted} verified"]
    for label, n in sorted(p.outcomes.items()):
        if label != workloads.VERIFIED:
            lines.append(f"    {label}: {n}")
    for note, n in sorted(p.notes.items()):
        lines.append(f"    {note}: {n}")
    return lines


def summarize(wl: workloads.Workload, seed: int, spawned: list[float], parts: list[dict],
              meter: hostspeed.Speedometer) -> Result:
    """End-to-end metrics from the workers' records.  `spawned[k]` is when
    worker k was started; `meter` holds the parent's own speed samples."""
    p = Pass(meter)
    for part in parts:
        meter.merge(part["chunk_times"], part["chunks"])
        p.starts += part["starts"]
        p.ends += part["ends"]
        p.outcomes.update(part["outcomes"])
        p.notes.update(part["notes"])
    setups = [part["ready"] - t0 for t0, part in zip(spawned, parts)]
    speed = meter.overall()
    raw = np.array(p.durations())
    scaled = raw * speed
    metrics = {
        "setup_s": median(setups) * speed,
        "samples_per_s": p.attempted / float(np.sum(scaled)),
        "sample_p50_s": float(np.median(scaled)),
        "verified_share": p.verified / p.attempted,
        "peak_rss_mb": median(part["rss_mb"] for part in parts),
    }
    pct = tail_percentile(p.attempted)
    if pct is not None:
        metrics["sample_tail_s"] = float(np.percentile(scaled, pct))
    report = [
        f"workload {wl.name}: seed {seed}, {p.attempted} ops over {len(parts)} processes, untraced",
        f"  why: {wl.why}",
        "  set-up per process (measured s): " + ", ".join(f"{t:.3f}" for t in setups),
        f"  timed ops: {raw.sum():.3f} s measured; host speed factor {speed:.3f}",
        "  peak RSS per process (MB), through set-up / over the whole process: "
        + ", ".join(f"{part['rss_setup_mb']:.1f} / {part['rss_mb']:.1f}" for part in parts),
        "  sample_tail_s: "
        + (f"p{pct} of {p.attempted} ops, {p.attempted - math.ceil(p.attempted * pct / 100)} ops beyond"
           if pct is not None else f"dropped: {p.attempted} ops leave no tail above the median"),
        *_outcome_lines(p),
    ]
    units = dict(END_TO_END)
    for name, unit in END_TO_END:
        if name in metrics:
            report.append(f"  {name} = {metrics[name]:.6g} {unit}")
    return Result(
        correct=p.failed == 0,
        attempted=p.attempted,
        failed=p.failed,
        metrics={k: (metrics[k], units[k]) for k, _ in END_TO_END if k in metrics},
        report=report,
    )


def measure(wl: workloads.Workload, seed: int, seconds: float) -> Result:
    """End-to-end metrics from an untraced run; per-op times are written out."""
    meter = hostspeed.Speedometer()
    spawned, parts = [], []
    for k in range(WORKERS):
        meter.sample(2)
        spawned.append(hostspeed.now())
        parts.append(_spawn_worker(wl, seed, seconds, k, WORKERS))
    result = summarize(wl, seed, spawned, parts, meter)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"seed": seed, "spawned": spawned, "workers": parts, "parent_chunk_times": meter.times,
              "parent_chunks": meter.chunks}
    (OUT_DIR / f"ops-{wl.name}.json").write_text(json.dumps(record), encoding="utf-8")
    return result


def trace(wl: workloads.Workload, seed: int, seconds: float) -> Result:
    """Per-layer metrics from a traced run: one untraced and two traced
    passes over the same leading ops.  Every count must repeat exactly."""
    meter = hostspeed.Speedometer()
    tracer = tracing.Tracer()
    meter.sample(2)
    t0 = hostspeed.now()
    with tracer.installed():
        ctx, ops = prepare(wl, seed, seconds)
    t1 = hostspeed.now()
    meter.sample(2)
    setup_spans = tracer.collect()

    ops = ops[: wl.n_traced(seconds)]
    plain = timed_pass(wl, ctx, ops, meter)
    passes = []
    for _ in range(2):
        with tracer.installed():
            p = timed_pass(wl, ctx, ops, meter, tracer)
        passes.append((p, tracer.collect()))

    report = [f"workload {wl.name}: seed {seed}, {len(ops)} ops per pass, traced", f"  why: {wl.why}"]
    signatures = [(s.signature(), dict(p.outcomes), dict(p.notes)) for p, s in passes]
    repeat = signatures[0] == signatures[1]
    if not repeat:
        a, b = signatures[0][0], signatures[1][0]
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        report.append(f"  COUNTS DIFFER between the traced passes: {diff[:20]}")

    per_pass = [tracing.layer_metrics(s, len(ops), p.speed()) for p, s in passes]
    metrics = {k: 0.5 * (per_pass[0][k] + per_pass[1][k]) for k in per_pass[0]}
    outcomes = passes[0][0].outcomes
    for cls in tracing.SKIP_CLASSES:
        metrics[f"inversion.skips.{cls}"] = outcomes["skip:" + cls]
    metrics["branches.select_epsilon_s"] = (
        setup_spans.inclusive("branches.select_epsilon") * meter.factor(t0, t1)
    )
    untraced_s = sum(plain.durations()) * plain.speed()
    traced_s = [sum(p.durations()) * p.speed() for p, _ in passes]
    metrics["trace.overhead_share"] = 1.0 - untraced_s / (0.5 * sum(traced_s))

    report.append(
        f"  pass time (reference-host s): untraced {untraced_s:.3f}, traced "
        + ", ".join(f"{t:.3f}" for t in traced_s)
    )
    report.append(f"  spans per pass: {len(passes[0][1].name)}; counts repeat: {repeat}")
    for label, share in tracing.time_shares(passes[0][1]).items():
        report.append(f"  share of op time {label}: {share:.3f}")
    report += _outcome_lines(passes[0][0])
    units = dict(tracing.PER_LAYER)
    for name, unit in tracing.PER_LAYER:
        report.append(f"  {name} = {metrics[name]:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    arrays = {}
    for tag, spans in [("setup", setup_spans)] + [(f"pass{i + 1}", s) for i, (_, s) in enumerate(passes)]:
        for key in ("name", "parent", "op", "err", "start", "end"):
            arrays[f"{tag}_{key}"] = getattr(spans, key)
    arrays["names"] = np.array(passes[-1][1].names)
    arrays["errors"] = np.array(passes[-1][1].errors or [""])
    path = OUT_DIR / f"trace-{wl.name}.npz"
    np.savez(path, **arrays)
    report.append(f"  spans written to {path}")

    failed = sum(p.failed for p, _ in passes) + plain.failed
    return Result(
        correct=repeat and failed == 0,
        attempted=len(ops),
        failed=failed,
        metrics={k: (float(metrics[k]), units[k]) for k, _ in tracing.PER_LAYER},
        report=report,
    )
