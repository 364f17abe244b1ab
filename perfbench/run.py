"""Benchmark of the durability-query system: three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same schedule twice in one process -- once with
count hooks only, once traced -- and reports per-layer numbers, span
coverage and the tracing overhead.  Either way every answer is checked
and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in
this directory for the workloads, metrics and the layer map.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run records, the count ledger and span dumps (git-ignored).
OUT = ROOT / ".perfbench"
#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Length of the steal-counter windows (see ``StealWindows``).
WINDOW_SECONDS = 1.0

END_TO_END = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "throughput_rps": "req/s", "steps_per_answer": "steps",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (unit, the end-to-end metrics it should move,
#: the workloads where it should move them).
LAYERS = {
    "serve.parse_ms": ("ms", "latency_p50_ms throughput_rps",
                       "serve_point"),
    "serve.encode_ms": ("ms", "latency_p50_ms throughput_rps",
                        "serve_point"),
    "serve.admission_wait_ms": ("ms", "latency_p90_ms", "serve_point"),
    "serve.outside_engine_ms": ("ms", "latency_p50_ms", "serve_point"),
    "engine.self_ms": ("ms", "latency_p50_ms", "serve_point"),
    "engine.plan_hit_ratio": ("ratio", "throughput_rps", "rare_mlss"),
    "greedy.search_ms": ("ms", "throughput_rps", "rare_mlss"),
    "greedy.search_steps": ("steps", "steps_per_answer throughput_rps",
                            "rare_mlss"),
    "sampler.self_ms": ("ms", "latency_p50_ms", "serve_point rare_mlss"),
    "sampler.steps_per_s": ("steps/s", "latency_p50_ms",
                            "serve_point rare_mlss"),
    "bootstrap.ms_per_answer": ("ms", "latency_p50_ms latency_p90_ms",
                                "rare_mlss"),
    "bootstrap.evals_per_answer": ("count", "latency_p50_ms",
                                   "rare_mlss"),
    "processes.calls_per_answer": ("count", "latency_p50_ms",
                                   "serve_point rare_mlss"),
    "processes.rows_per_call": ("rows", "(cohort size: which side of "
                                "the small/large split)",
                                "serve_point rare_mlss"),
    "processes.ns_per_row": ("ns", "latency_p50_ms",
                             "serve_point rare_mlss"),
    "pool.tasks_per_call": ("count", "latency_p50_ms", "fleet_pooled"),
    "pool.wait_ms": ("ms", "throughput_rps", "fleet_pooled"),
    "pool.parent_self_ms": ("ms", "latency_p50_ms", "fleet_pooled"),
    "pool.worker_steps_per_s": ("steps/s", "throughput_rps",
                                "fleet_pooled"),
    "trace.span_coverage": ("fraction", "(share of request latency "
                            "inside traced spans)", "all"),
    "trace.overhead_ms": ("ms", "(traced minus untraced "
                          "latency_p50_ms)", "all"),
}

#: Counts that must repeat exactly for one (workload, seed, seconds).
EXACT_COUNTS = ("steps_per_answer", "greedy.search_steps",
                "processes.calls_per_answer", "pool.tasks_per_call")


# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------

def percentile(values, q: float):
    """Harrell-Davis estimate of the q-quantile, or None when fewer than
    10 samples lie beyond it (the benchmark never reports those).

    The estimate weighs every order statistic by a Beta((n+1)q,
    (n+1)(1-q)) probability instead of reading one or two of them, so
    it moves smoothly when the samples sit in clusters -- as the
    per-shape costs of rare_mlss do -- instead of jumping across the
    gaps between them.
    """
    import numpy as np
    n = len(values)
    if n * (1.0 - q) < 10:
        return None
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = ((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
               - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    density = np.exp(log_pdf)
    cdf = np.concatenate(([0.0], np.cumsum(
        (density[1:] + density[:-1]) / 2 * np.diff(grid))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(np.dot(weights, np.sort(np.asarray(values, dtype=float))))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Host noise: a fixed reference job and the steal clock
# ----------------------------------------------------------------------

def reference_job_seconds() -> float:
    """Wall time of a fixed compute job (Python loop + NumPy kernel)."""
    import numpy as np
    data = np.random.default_rng(0).random(200_000)
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value
    for _ in range(100):
        data = np.sqrt(data + 1.0)
    return time.perf_counter() - started


def steal_seconds() -> float:
    """Cumulative steal time of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class StealWindows:
    """Steal-counter readings at 1-s intervals on a background thread.

    Consecutive readings bound the run's windows; ``calm`` keeps the
    records that completed in the calmer half of them.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        self.samples.append((time.perf_counter_ns(), steal_seconds()))
        while not self._stop.wait(WINDOW_SECONDS):
            self.samples.append((time.perf_counter_ns(), steal_seconds()))

    def __enter__(self) -> "StealWindows":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def calm(self, records) -> tuple:
        """``(records, seconds, windows kept, windows)``: the records
        that completed in windows whose steal is at most the median
        window's, and those windows' total length."""
        windows = [(end[1] - start[1], start[0], end[0])
                   for start, end in zip(self.samples, self.samples[1:])]
        threshold = statistics.median(steal for steal, _, _ in windows)
        kept = [(lo, hi) for steal, lo, hi in windows if steal <= threshold]
        chosen = [r for r in records
                  if any(lo <= r.end_ns < hi for lo, hi in kept)]
        return chosen, sum(hi - lo for lo, hi in kept) / 1e9, \
            len(kept), len(windows)


# ----------------------------------------------------------------------
# Set-up timing in fresh processes
# ----------------------------------------------------------------------

def setup_samples(workload: str, seed: int) -> list:
    """Seconds from process start to ready, over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = child.stdout.readline()
        ready = time.perf_counter() - started
        child.stdout.read()
        if child.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up of {workload} failed")
        samples.append(ready)
    return samples


# ----------------------------------------------------------------------
# One measured pass
# ----------------------------------------------------------------------

def measured_pass(workload, trace: bool) -> dict:
    from tracing import Hooks
    started = time.perf_counter()
    workload.setup()
    setup_seconds = time.perf_counter() - started
    try:
        cache_before = workload.plan_cache_stats()
        hooks = Hooks(trace).install()
        try:
            with StealWindows() as windows:
                wall_start = time.perf_counter()
                records = workload.run(hooks)
                wall = time.perf_counter() - wall_start
        finally:
            hooks.uninstall()
        cache_after = workload.plan_cache_stats()
        rss = workload.peak_rss_mb()
    finally:
        workload.teardown()
    lookups = ((cache_after["hits"] + cache_after["misses"])
               - (cache_before["hits"] + cache_before["misses"]))
    hits = cache_after["hits"] - cache_before["hits"]
    return {"records": records, "wall": wall, "hooks": hooks,
            "windows": windows, "counts": hooks.counts(), "rss": rss,
            "hit_ratio": hits / lookups if lookups else 0.0,
            "setup_seconds": setup_seconds}


def summarize(workload, result: dict) -> dict:
    """End-to-end numbers and exact counts of one pass."""
    records = result["records"]
    done = [r for r in records if r.ok]
    timed, seconds = done, result["wall"]
    calm = None
    if workload.calm_windows:
        timed, seconds, kept, total = result["windows"].calm(done)
        every = [r.latency_ms for r in done if r.cls == workload.primary]
        calm = {"windows_kept": kept, "windows": total,
                "all_latency_p50_ms": percentile(every, 0.5),
                "all_latency_p90_ms": percentile(every, 0.9),
                "all_throughput_rps": len(done) / result["wall"]}
    primary = [r.latency_ms for r in timed if r.cls == workload.primary]
    answers = sum(r.answers for r in done)
    cold = [r for r in done if r.search_steps]
    classes = {}
    for record in records:
        classes[record.cls] = classes.get(record.cls, 0) + 1
    counts = result["counts"]
    steps_per_answer = sum(r.steps for r in done) / max(answers, 1)
    return {
        "latency_p50_ms": percentile(primary, 0.5),
        "latency_p90_ms": percentile(primary, 0.9),
        "latency_p99_ms": percentile(primary, 0.99),
        "primary_n": len(primary),
        "completed": len(timed),
        "answers": answers,
        "wall_s": seconds,
        "throughput_rps": len(timed) / seconds,
        "calm": calm,
        "steps_per_answer": steps_per_answer,
        "peak_rss_mb": result["rss"],
        "classes": classes,
        "class_latencies_ms": {cls: [round(r.latency_ms, 3) for r in done
                                     if r.cls == cls] for cls in classes},
        "counts": {
            "steps_per_answer": steps_per_answer,
            "greedy.search_steps": (sum(r.search_steps for r in cold)
                                    / len(cold) if cold else 0.0),
            "processes.calls_per_answer": counts["calls"] / max(answers, 1),
            "pool.tasks_per_call": counts["tasks"] / max(len(done), 1),
        },
    }


# ----------------------------------------------------------------------
# Per-layer numbers from a traced pass
# ----------------------------------------------------------------------

def layer_metrics(workload, result: dict, summary: dict,
                  untraced_p50: float) -> dict:
    from tracing import (END, KERNEL_NS, NAME, ROWS, START, CALLS,
                         by_request, children_of, coverage, self_ns)
    records = {r.rid: r for r in result["records"] if r.ok}
    grouped = by_request(result["hooks"].spans)
    children = children_of(result["hooks"].spans)
    ms = 1e-6

    def duration(span):
        return span[END] - span[START]

    per = {key: [] for key in ("parse", "encode", "admission", "outside",
                               "engine_self", "sampler_self", "search",
                               "pool_wait", "pool_self", "coverage")}
    kernel_calls = kernel_rows = kernel_ns = 0
    sampler_ns = sampler_steps = call_ns = member_steps = 0
    for rid, record in records.items():
        spans = grouped.get(rid, [])
        named = {}
        for span in spans:
            named.setdefault(span[NAME], []).append(span)
            kernel_calls += span[CALLS]
            kernel_rows += span[ROWS]
            kernel_ns += span[KERNEL_NS]
        roots = named.pop("request", [])
        engine = named.get("engine", [])
        engine_ns = sum(duration(s) for s in engine)
        if roots:
            inner = [s for name, group in named.items() for s in group]
            per["coverage"].append(coverage(roots[0][START], roots[0][END],
                                            inner))
        per["engine_self"].append(sum(self_ns(s, children.get(s[0], []))
                                      for s in engine) * ms)
        if workload.name == "serve_point":
            per["parse"].append(sum(duration(s) for s in
                                    named.get("serve.parse_policy", [])
                                    + named.get("serve.parse_query", []))
                                * ms)
            per["encode"].append(sum(duration(s) for s in
                                     named.get("serve.encode_estimate", [])
                                     + named.get("serve.dumps_canonical",
                                                 [])) * ms)
            per["admission"].append(sum(duration(s) for s in
                                        named.get("serve.admission", []))
                                    * ms)
            per["outside"].append(record.latency_ms - engine_ns * ms)
        samplers = named.get("sampler", [])
        if samplers:
            per["sampler_self"].append(
                sum(self_ns(s, children.get(s[0], []))
                    for s in samplers) * ms)
            sampler_ns += sum(duration(s) for s in samplers)
            sampler_steps += record.steps - record.search_steps
        if record.search_steps:
            per["search"].append(sum(duration(s) for s in
                                     named.get("greedy", [])) * ms)
        if workload.name == "fleet_pooled":
            wait = sum(duration(s) for s in named.get("pool.wait", []))
            per["pool_wait"].append(wait * ms)
            per["pool_self"].append((engine_ns - wait) * ms)
            call_ns += record.end_ns - record.start_ns
            member_steps += record.steps
    answers = sum(r.answers for r in records.values()) or 1
    workers = getattr(workload, "workers", 1)
    traced_p50 = summary["latency_p50_ms"]
    samples = {"serve.parse_ms": len(per["parse"]),
               "serve.encode_ms": len(per["encode"]),
               "serve.admission_wait_ms": len(per["admission"]),
               "serve.outside_engine_ms": len(per["outside"]),
               "engine.self_ms": len(per["engine_self"]),
               "greedy.search_ms": len(per["search"]),
               "sampler.self_ms": len(per["sampler_self"]),
               "pool.wait_ms": len(per["pool_wait"]),
               "pool.parent_self_ms": len(per["pool_self"]),
               "trace.span_coverage": len(per["coverage"])}
    return samples, {
        "serve.parse_ms": mean(per["parse"]),
        "serve.encode_ms": mean(per["encode"]),
        "serve.admission_wait_ms": mean(per["admission"]),
        "serve.outside_engine_ms": mean(per["outside"]),
        "engine.self_ms": mean(per["engine_self"]),
        "engine.plan_hit_ratio": result["hit_ratio"],
        "greedy.search_ms": mean(per["search"]),
        "greedy.search_steps": summary["counts"]["greedy.search_steps"],
        "sampler.self_ms": mean(per["sampler_self"]),
        "sampler.steps_per_s": (sampler_steps / (sampler_ns * 1e-9)
                                if sampler_ns else 0.0),
        "bootstrap.ms_per_answer": sum(r.boot_seconds for r in
                                       records.values()) * 1e3 / answers,
        "bootstrap.evals_per_answer": sum(r.boot_evals for r in
                                          records.values()) / answers,
        "processes.calls_per_answer":
            summary["counts"]["processes.calls_per_answer"],
        "processes.rows_per_call": (kernel_rows / kernel_calls
                                    if kernel_calls else 0.0),
        "processes.ns_per_row": (kernel_ns / kernel_rows
                                 if kernel_rows else 0.0),
        "pool.tasks_per_call": summary["counts"]["pool.tasks_per_call"],
        "pool.wait_ms": mean(per["pool_wait"]),
        "pool.parent_self_ms": mean(per["pool_self"]),
        "pool.worker_steps_per_s": (member_steps
                                    / (call_ns * 1e-9 * workers)
                                    if call_ns else 0.0),
        "trace.span_coverage": (statistics.median(per["coverage"])
                                if per["coverage"] else 0.0),
        "trace.overhead_ms": traced_p50 - untraced_p50,
    }


# ----------------------------------------------------------------------
# Count ledger: the same (workload, seed, seconds) must repeat exactly
# ----------------------------------------------------------------------

def code_digest() -> str:
    """Digest of the program and benchmark sources: counts are compared
    only between runs of the same code."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ledger_check(key: str, counts: dict) -> list:
    path = OUT / "counts.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    previous = ledger.get(key)
    problems = []
    if previous is None:
        ledger[key] = counts
        path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    else:
        problems = count_mismatches(previous, counts,
                                    f"an earlier run of {key}")
    return problems


def count_mismatches(first: dict, second: dict, what: str) -> list:
    return [f"{name} {second[name]!r} differs from {first[name]!r} "
            f"({what})" for name in EXACT_COUNTS
            if first[name] != second[name]]


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC.name}/ next to "
              f"{HERE.name}/; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    if args.setup_only:
        workload.setup()
        print("ready", flush=True)
        workload.teardown()
        return 0

    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)
    steal_start = steal_seconds()
    reference_start = reference_job_seconds()

    setups = setup_samples(args.workload, args.seed) if not args.trace \
        else []
    workload.build(args.seed, args.seconds)

    first = measured_pass(workload, trace=False)
    failures, notes = workload.check(first["records"])
    summary = summarize(workload, first)
    problems = []
    traced = None
    if args.trace:
        traced = measured_pass(workload, trace=True)
        traced_failures, traced_notes = workload.check(traced["records"])
        failures += traced_failures
        notes += traced_notes
        traced_summary = summarize(workload, traced)
        problems += count_mismatches(summary["counts"],
                                     traced_summary["counts"],
                                     "traced pass vs untraced pass")
        samples, metrics = layer_metrics(workload, traced, traced_summary,
                                         summary["latency_p50_ms"])
        units = {name: spec[0] for name, spec in LAYERS.items()}
    else:
        samples = {}
        metrics = {name: summary[name] for name in END_TO_END
                   if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    key = f"{args.workload}:{args.seed}:{args.seconds}:{code_digest()}"
    problems += ledger_check(key, summary["counts"])

    reference_end = reference_job_seconds()
    steal = steal_seconds() - steal_start
    attempted = len(first["records"]) + (len(traced["records"])
                                         if traced else 0)
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        problems.append(f"metrics without enough samples: {missing}")

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "load": workload.load, "cpu_count": os.cpu_count(),
        "attempted": attempted,
        "classes": summary["classes"],
        "class_latencies_ms": summary["class_latencies_ms"],
        "primary_class": workload.primary, "primary_n": summary["primary_n"],
        "latency_p99_ms": summary["latency_p99_ms"],
        "calm": summary["calm"],
        "setup_samples_s": setups,
        "main_setup_s": first["setup_seconds"],
        "counts": summary["counts"],
        "host": {"reference_job_s": [reference_start, reference_end],
                 "steal_s": steal},
        "failures": [f"{rid}: {reason}" for rid, reason in failures],
        "notes": [f"{rid}: {reason}" for rid, reason in notes],
        "problems": problems, "metrics": metrics, "samples": samples,
        "completed": summary["completed"], "answers": summary["answers"],
        "wall_s": summary["wall_s"],
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))
    if traced:
        traced["hooks"].dump(OUT / f"{tag}-spans.jsonl")

    print_report(report, units)
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if value is not None}}))
    return 0


def print_report(report: dict, units: dict) -> None:
    total = sum(report["classes"].values())
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} "
          f"cpu_count={report['cpu_count']}")
    print(f"  load: {report['load']}")
    for cls, count in sorted(report["classes"].items()):
        latencies = report["class_latencies_ms"][cls]
        median = percentile(latencies, 0.5)
        print(f"  class {cls}: {count} requests ({count / total:.1%}), "
              f"mean {mean(latencies):.3f} ms, median "
              + (f"{median:.3f} ms" if median is not None
                 else "not reported (fewer than 10 samples beyond it)"))
    n = report["primary_n"]
    for name, value in report["metrics"].items():
        if value is None:
            continue
        note = ""
        if name.startswith("latency_"):
            note = f"  (n={n}, class={report['primary_class']})"
        elif name == "setup_s":
            note = f"  (median of {len(report['setup_samples_s'])} " \
                   f"fresh processes)"
        elif name == "throughput_rps":
            note = f"  ({report['completed']} requests in " \
                   f"{report['wall_s']:.2f} s)"
        elif name == "steps_per_answer":
            note = f"  ({report['answers']} answers)"
        elif name in report["samples"]:
            kind = "median" if name == "trace.span_coverage" else "mean"
            note = f"  ({kind} over n={report['samples'][name]} requests)"
        if name in LAYERS:
            _, moves, where = LAYERS[name]
            note += f"  -> {moves} on {where}"
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    calm = report["calm"]
    if calm:
        print(f"  timed over the calmer half of 1-s windows: "
              f"{calm['windows_kept']} of {calm['windows']} (steal at most "
              f"the median window's); all windows: p50 "
              f"{calm['all_latency_p50_ms']:.6g} ms, p90 "
              f"{calm['all_latency_p90_ms']:.6g} ms, "
              f"{calm['all_throughput_rps']:.6g} req/s")
    p99 = report["latency_p99_ms"]
    print(f"  latency_p99_ms = "
          + (f"{p99:.6g} ms  (n={n}; printed only, no bound)"
             if p99 is not None else
             f"not reported (n={n}: fewer than 10 samples beyond p99)"))
    failed = len(report["failures"])
    attempted = report["attempted"]
    print(f"  failed_share = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} attempted)")
    for line in report["failures"][:20]:
        print(f"  FAILED request {line}")
    for line in report["notes"][:20]:
        print(f"  note: request {line}")
    for line in report["problems"]:
        print(f"  COUNT GUARD: {line}")
    host = report["host"]
    print(f"  host: reference job {host['reference_job_s'][0]:.4f} s "
          f"-> {host['reference_job_s'][1]:.4f} s, steal "
          f"{host['steal_s']:.2f} s during the run")


if __name__ == "__main__":
    sys.exit(main())
