#!/usr/bin/env python3
"""The intshuffle benchmark: one workload per process, every answer checked.

    python3 perfbench/run.py --workload expand|checks|certify --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each workload is a seeded list of CLI commands, run in-process through
`intshuffle.cli.main` exactly as a user's command would run.  A pass runs the
whole list once; passes repeat until S seconds have gone by (at least one).
Every answer is checked by the independent oracle in `oracle.py`.

Cold workloads (`expand`, `checks`) clear every functools cache of the
intshuffle modules and collect garbage before each op; the warm workload
(`certify`) does so once per pass.  Times are reported at the host's nominal
speed (see `calib.py`).  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics from a traced run with `--trace 1`).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

import calib  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7

SETUP_CHILD = """\
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from calib import calibrate
c0 = calibrate()
t0 = time.perf_counter()
import intshuffle.cli
t1 = time.perf_counter()
c1 = calibrate()
print(json.dumps({"import_s": t1 - t0, "cal_s": (c0 + c1) / 2,
                  "file": intshuffle.cli.__file__}))
"""


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def import_program():
    """Import intshuffle from this checkout's src/ and nowhere else."""
    if not (SRC / "intshuffle" / "cli.py").is_file():
        raise ImportError(f"no intshuffle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import intshuffle.cli

    if Path(intshuffle.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"intshuffle was imported from {intshuffle.cli.__file__}")
    return intshuffle.cli


def measure_setup() -> tuple:
    """Median import time of intshuffle.cli in fresh interpreters (nominal s)."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        record = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(record["file"]).resolve().parent.parent != SRC.resolve():
            raise ImportError(f"setup imported intshuffle from {record['file']}")
        samples.append(record["import_s"] * calib.NOMINAL_S / record["cal_s"])
    return statistics.median(samples), samples


# -- caches -------------------------------------------------------------------


def discover_caches() -> dict:
    """Every object with cache_info/cache_clear bound in an intshuffle module
    (or class of one), keyed by module.qualname of the cached function."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "intshuffle" or name.startswith("intshuffle.")):
            continue
        values = list(vars(module).values())
        values += [v for cls in values if isinstance(cls, type)
                   and cls.__module__ == name for v in vars(cls).values()]
        for value in values:
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                key = f"{value.__module__}.{getattr(value, '__qualname__', '?')}"
                found[key] = value
    return found


class CacheStats:
    def __init__(self, caches: dict):
        self.caches = caches
        self.totals = {key: [0, 0] for key in caches}

    def clear(self):
        for key, cache in self.caches.items():
            info = cache.cache_info()
            self.totals[key][0] += info.hits
            self.totals[key][1] += info.misses
            cache.cache_clear()

    def snapshot(self) -> dict:
        return {key: tuple(v) for key, v in self.totals.items()}

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}


def cache_layer_metrics(delta: dict) -> dict:
    def total(module: str, word_only: bool = False):
        hits = misses = 0
        for key, (h, m) in delta.items():
            if key.startswith(module + ".") and (not word_only or "word" in key.rsplit(".", 1)[1]):
                hits += h
                misses += m
        return hits, misses

    hits, misses = total("intshuffle.shuffle", word_only=True)
    g_hits, g_misses = total("intshuffle.generators")
    return {
        "shuffle.word_cache_hits": hits,
        "shuffle.word_cache_misses": misses,
        "generators.cache_hit_ratio": g_hits / (g_hits + g_misses) if g_hits + g_misses else 0.0,
    }


# -- passes --------------------------------------------------------------------------


class Runner:
    def __init__(self, cli, work: workloads.Workload, caches: CacheStats,
                 speed: calib.Speedometer):
        self.cli = cli  # cli.main is looked up per op, so a traced pass meets the wrapper
        self.work = work
        self.caches = caches
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.errors: list = []
        self.next_op_id = 0

    def run_pass(self, tracer=None) -> dict:
        ops = self.work.ops
        intervals = []
        largest = []
        out_bytes = 0
        for i, op in enumerate(ops):
            if not self.work.warm:
                gc.collect()
            stdout, stderr = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op_id = self.next_op_id
            self.next_op_id += 1
            rc = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = self.cli.main(list(op.argv))
            except Exception:  # an op that crashes counts as failed; keep measuring
                self.errors.append((op.argv, traceback.format_exc(limit=3)))
            intervals.append((t0, time.perf_counter()))
            if op.largest:
                largest.append(i)
            out = stdout.getvalue()
            out_bytes += len(out.encode())
            self.attempted += 1
            if rc is None or rc == 2:
                self.failed += 1
                if rc == 2:
                    self.errors.append((op.argv, stderr.getvalue()[-300:]))
            else:
                try:
                    reason = op.check(rc, out)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    reason = f"unreadable output: {exc!r}"
                if reason is not None:
                    self.wrong.append((op.argv, reason))
            if op.save:
                Path(op.save).write_text(out, encoding="utf-8")
            if not self.work.warm:
                self.caches.clear()
        if self.work.warm:
            self.caches.clear()
        gc.collect()

        raw = [t1 - t0 for t0, t1 in intervals]
        norm = [(t1 - t0) * self.speed.factor(t0, t1) for t0, t1 in intervals]
        return {
            "raw_s": raw,
            "norm_s": norm,
            "wall_s": sum(norm),
            "raw_wall_s": sum(raw),
            "largest_s": [norm[i] for i in largest],
            "scale": sum(norm) / sum(raw),
            "out_bytes": out_bytes,
        }


def run_measure(runner: Runner, seconds: float) -> tuple:
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    norm = [t for p in passes for t in p["norm_s"]]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (1000 * statistics.median(norm), "ms"),
        "largest_op_s": (statistics.median(t for p in passes for t in p["largest_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, passes


PER_LAYER_UNITS = {"gc.collections": "count", "cli.out_bytes": "bytes",
                   "generators.cache_hit_ratio": "ratio", "trace.overhead_share": "ratio"}


def run_traced(runner: Runner, seconds: float, span_path: Path) -> tuple:
    from spans import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    plain, traced, layers = [], [], []
    spans_written = False
    while len(traced) < 1 or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        before = runner.caches.snapshot()
        first = tracer.span_count()
        tracer.reset_totals()
        tracer.install()
        try:
            record = runner.run_pass(tracer)
        finally:
            tracer.remove()
        traced.append(record)
        tracer.check_spans(first)
        metrics = tracer.layer_metrics(record["scale"])
        metrics.update(cache_layer_metrics(CacheStats.delta(runner.caches.snapshot(), before)))
        metrics["cli.out_bytes"] = record["out_bytes"]
        metrics["trace.spans"] = tracer.span_count() - first
        layers.append(metrics)
        if not spans_written:
            tracer.write_spans(str(span_path), first, tracer.span_count())
            spans_written = True
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    metrics = {name: (value, PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count"))
               for name, value in out.items()}
    return metrics, plain + traced, tracer.self_time_by_name()


def environment() -> dict:
    env = {"python": platform.python_version(), "implementation": platform.python_implementation(),
           "nproc": os.cpu_count(), "machine": platform.machine()}
    kernel = sys.modules.get("intshuffle._kernel")
    if kernel is not None and hasattr(kernel, "active_name"):
        env["kernel"] = kernel.active_name()
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only run the oracle's self-test")
    args = parser.parse_args(argv)

    failures = oracle.self_test(random.Random(args.seed))
    if failures:
        return fail("oracle self-test failed: " + "; ".join(failures), 3)
    if args.self_test:
        print("oracle self-test passed")
        return 0
    if args.workload is None:
        return fail("--workload is required")
    try:
        cli = import_program()
        setup_s, setup_samples = measure_setup() if not args.trace else (None, [])
    except (ImportError, OSError, subprocess.SubprocessError, ValueError) as exc:
        return fail(f"cannot set up the program: {exc}")

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = workloads.build(args.workload, args.seed, str(OUT_DIR / f"{tag}-cert.json"))
    caches = CacheStats(discover_caches())
    caches.clear()
    with calib.Speedometer() as speed:
        runner = Runner(cli, work, caches, speed)
        if args.trace:
            metrics, passes, self_times = run_traced(runner, args.seconds,
                                                     OUT_DIR / f"{tag}-spans.tsv")
        else:
            metrics, passes = run_measure(runner, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            self_times = {}

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "ops_per_pass": len(work.ops),
        "setup_samples_s": setup_samples, "passes": passes,
        "caches": {k: {"hits": h, "misses": m} for k, (h, m) in caches.snapshot().items()},
        "self_time_s": self_times, "wrong": runner.wrong, "errors": runner.errors,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(work.ops)} ops; "
          f"python {env['python']}, nproc {env['nproc']}, kernel {env.get('kernel', '-')}")
    print(f"# raw pass wall s: {[round(p['raw_wall_s'], 3) for p in passes]}")
    print("# caches (hits/misses): " + ", ".join(
        f"{key.split('.', 1)[1]} {h}/{m}" for key, (h, m) in caches.snapshot().items()))
    for argv_, reason in runner.wrong[:5]:
        print(f"# WRONG {' '.join(argv_)}: {reason}")
    for argv_, error in runner.errors[:5]:
        print(f"# FAILED {' '.join(argv_)}: {error.strip().splitlines()[-1] if error.strip() else ''}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
