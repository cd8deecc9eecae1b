"""gkzmono benchmark: one workload per run, single process, single thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload beta_sweep --seed 1 --seconds 20 --trace 0

Workloads: beta_sweep, config_corpus, toric_export (see workloads.py and
NOTES.md).  A run is a closed loop with one caller: the next op starts when
the previous one returned.  The op list is fixed by the seed and the run
length (``--seconds`` times the workload's nominal rate, at least MIN_OPS),
not by the clock, so every run with the same arguments does the same work.

Every time reported is host-normalized: the frozen reference kernel in
hostref.py runs between consecutive ops (and around each set-up), and each
raw time is scaled by R0 / r, with r the mean of the reference runs next to
it.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics of a pass with the span tracer installed, plus the raw wall-clock
diagnostics and the tracing overhead from an untraced pass over the first
quarter of the ops.  Outputs are checked after the timed region; the last
line of stdout is one JSON object, and the exit code is 1 when a check
failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import hostref  # noqa: E402  (must be imported before gkzmono)

MIN_OPS = 100
SETUP_PROBES = 5
DEFAULT_SEED = 1
TRACE_DIR = ROOT / ".perfbench"
# The traced run's untraced baseline covers the first 1/TRACE_BASELINE_SHARE
# of the ops.
TRACE_BASELINE_SHARE = 4

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CACHES = (
    "intlinalg.kernel_lattice_basis",
    "pyramids._distinct_columns",
    "pyramids._vector_splits_off",
    "resonance._face_functionals",
    "volume._volume_of_matrix",
)

# Work per call, as (metric, span whose WORK count is divided by its calls).
WORK_RATIOS = (
    ("cones.is_face.useful_ratio", "cones.is_face"),
    ("cones.enumerate_faces.faces_per_call", "cones.enumerate_faces"),
    ("groebner.buchberger.basis_per_call", "groebner.buchberger"),
    ("toric.toric_ideal_generators.generators_per_call", "toric.toric_ideal_generators"),
)


def per_layer_units(spans) -> dict:
    units = {}
    for span in spans:
        units[f"{span}.calls_per_op"] = "count"
        units[f"{span}.self_ms_per_op"] = "ms"
    for metric, _ in WORK_RATIOS:
        units[metric] = "ratio" if metric.endswith("_ratio") else "count"
    for cache in CACHES:
        units[f"cache.{cache}.hit_ratio"] = "ratio"
    units["host.ref_ms_p50"] = "ms"
    units["wall.ops_per_s"] = "1/s"
    units["wall.latency_ms_p50"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Normalized set-up seconds from SETUP_PROBES fresh interpreters."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(count)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(float(proc.stdout.split()[-1]))
    return values


def measure(wl, ops, failures, tracer=None):
    """Run ops once each, in order, with the reference kernel between them.

    Returns (outcomes, errors, raw seconds, host scale per op), where an op's
    normalized time is raw * scale and scale = R0 / mean of the reference
    runs just before and just after it.
    """
    outcomes, errors, raw, refs = [], [], [], [hostref.time_reference()]
    clock = time.perf_counter
    gc.collect()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        start = clock()
        try:
            out, err = wl.run(op), None
        except failures as exc:
            out, err = None, exc
        raw.append(clock() - start)
        refs.append(hostref.time_reference())
        outcomes.append(out)
        errors.append(err)
    scale = [2 * hostref.R0_S / (a + b) for a, b in zip(refs, refs[1:])]
    return outcomes, errors, raw, scale


def quantile(values, q: int) -> float:
    """The q-th decile (q=5 the median) of values."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gkzmono" / "__init__.py").is_file():
        print(f"error: gkzmono sources not found under {SRC}", file=sys.stderr)
        return 2
    if any(m == "gkzmono" or m.startswith("gkzmono.") for m in sys.modules):
        print("error: the host reference imported gkzmono", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    count = max(MIN_OPS, round(args.seconds * cls.rate))
    failures = (workloads.GkzError, workloads.OpFailed)

    setups = [] if args.trace else setup_probes(args.workload, args.seed, count)
    wl = cls(args.seed, count)
    caches = tracing.lru_caches()

    def fresh_start():
        for fn in caches.values():
            fn.cache_clear()
        wl.warm_up()

    fresh_start()
    if args.trace:
        # Untraced pass over the first part only, for the overhead ratio and
        # the raw wall-clock diagnostics; then the traced pass over all ops.
        prefix = wl.ops[: max(1, len(wl.ops) // TRACE_BASELINE_SHARE)]
        _, _, base_raw, base_scale = measure(wl, prefix, failures)
        fresh_start()
        before = {name: fn.cache_info() for name, fn in caches.items()}
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outcomes, errors, raw, scale = measure(wl, wl.ops, failures, tracer)
        finally:
            tracer.uninstall()
        after = {name: fn.cache_info() for name, fn in caches.items()}
    else:
        outcomes, errors, raw, scale = measure(wl, wl.ops, failures)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    norm = [t * s for t, s in zip(raw, scale)]

    problems, lines = wl.check(outcomes)
    failed = set()
    for i, err in enumerate(errors):
        if err is not None:
            problems[i].insert(0, f"{type(err).__name__}: {err}")
        if problems[i]:
            failed.add(i)
    for i in sorted(failed)[:10]:
        print(f"op {i} failed: {'; '.join(problems[i])}")
    attempted = len(wl.ops)
    completed = attempted - len(failed)

    got = workloads.digest(lines)
    expected = json.loads((HERE / "expected_digest.json").read_text())
    checked = args.seed == DEFAULT_SEED
    digest_ok = not checked or expected.get(args.workload) == got
    print(f"digest {got} of the first {workloads.DIGEST_OPS} ops: "
          + ("not checked for this seed" if not checked else "ok" if digest_ok else "MISMATCH"))
    print(f"error_rate {len(failed) / attempted:.6g} fraction ({len(failed)} of {attempted} ops)")

    if args.trace:
        units = per_layer_units(tracing.SPANS)
        metrics = layer_metrics(tracer, caches, before, after, raw, norm, scale)
        prefix_norm = [t * s for t, s in zip(base_raw, base_scale)]
        metrics["host.ref_ms_p50"] = statistics.median(hostref.R0_S / s for s in base_scale) * 1e3
        metrics["wall.ops_per_s"] = len(base_raw) / sum(base_raw)
        metrics["wall.latency_ms_p50"] = statistics.median(base_raw) * 1e3
        metrics["trace.overhead_ratio"] = sum(norm[: len(prefix_norm)]) / sum(prefix_norm)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        units = END_TO_END
        p90 = quantile(norm, 9)
        metrics = {
            "ops_per_s": completed / sum(norm),
            "latency_ms_p50": statistics.median(norm) * 1e3,
            "latency_ms_p90": p90 * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
        print(f"{attempted} ops, {sum(t > p90 for t in norm)} above p90; "
              f"set-up samples {[round(v, 4) for v in setups]} s")

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = not failed and digest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def layer_metrics(tracer, caches, before, after, raw, norm, scale) -> dict:
    """Per-layer metrics of the traced pass; prints bases and time shares."""
    ops = len(raw)
    totals = tracer.totals(scale)
    metrics = {}
    for span, (calls, own) in totals.items():
        metrics[f"{span}.calls_per_op"] = calls / ops
        metrics[f"{span}.self_ms_per_op"] = own * 1e3 / ops
    for metric, span in WORK_RATIOS:
        calls = totals[span][0]
        metrics[metric] = tracer.work[span] / calls if calls else 0.0
        print(f"{metric}: base {calls / ops:.6g} {span} calls per op")
    for cache in CACHES:
        hits = misses = 0
        if cache in caches:
            hits = after[cache].hits - before[cache].hits
            misses = after[cache].misses - before[cache].misses
        metrics[f"cache.{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        print(f"cache.{cache}: {hits} hits of {hits + misses} lookups"
              + ("" if cache in caches else " (cache absent)"))
    for cache in sorted(set(caches) - set(CACHES)):
        print(f"cache.{cache}: found, but not in the metric list")
    for span in tracer.absent:
        print(f"span {span}: absent")
    total = sum(norm)
    print("self-time shares of traced op time:")
    for span, (calls, own) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        if calls:
            print(f"  {own / total:7.1%}  {span}")
    print(f"  {1 - sum(own for _, own in totals.values()) / total:7.1%}  (outside every span)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
