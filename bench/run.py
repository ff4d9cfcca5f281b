"""lexner benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload train-small --seed 1 --seconds 60 --trace 0

Workloads (see ``workloads.py``): ``train-small`` and ``infer-long``. The
run sets its inputs up from ``--seed`` several times, spread over the run,
repeats passes over them while a pass still ends within ``--seconds`` (at
least two passes), spends the rest of the time on more inference latency
samples, and checks every output. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it adds
one traced set-up and pass and reports the per-layer metrics instead.
Human-readable lines come first; the last line of standard output is one
JSON object. The exit code is 0 only when every check passed.

End-to-end metrics: ``setup_s`` (median set-up), ``sents_per_s`` (training
sentences x epochs per second of ``train_model``, or inferred sentences per
second on ``infer-long``), ``infer_ms_p50`` and ``infer_ms_p75`` (latency of
one sentence through preparation, scoring and decoding, each sentence at
its fastest sample), ``peak_rss_mb`` and ``mean_loss`` (last-epoch focal
loss, or the focal loss of the scored spans on ``infer-long``).
"""
from __future__ import annotations

import os

# The installed OpenBLAS is multithreaded; pin it to one thread before numpy
# is imported, so that a run uses one core and runs on a busy host stay
# comparable.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

SETUPS_FIRST = 4        # timed set-ups before the first pass
SETUPS_PER_PASS = 2     # and before each later one
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))
MIN_PASSES = 2
TAIL_SAMPLES = 10       # samples a reported percentile must have beyond it


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples above it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1], len(ordered) - rank


def latency_summary(values_ms: list[float]) -> dict[str, float]:
    """p50 and p75 of per-sentence latencies, with the sample counts.

    p75 is the highest reported percentile, so it needs at least
    ``TAIL_SAMPLES`` samples beyond it: 40 sentences or more.
    """
    p50, _ = percentile(values_ms, 50)
    p75, beyond = percentile(values_ms, 75)
    if beyond < TAIL_SAMPLES:
        raise ValueError(f"p75 of {len(values_ms)} samples has only {beyond} beyond it")
    return {"p50": p50, "p75": p75, "samples": len(values_ms), "beyond_p75": beyond}


def fastest(samples: list[list[float]]) -> list[float]:
    """Element-wise minimum over passes of per-unit durations.

    The host's speed drifts by tens of percent over seconds, and drift only
    ever slows a unit down, so a unit's fastest pass is the estimate of the
    program's own cost. Empty lists (a pass that failed early) are skipped;
    lists that still differ in length are pooled instead.
    """
    samples = [s for s in samples if s]
    if len({len(s) for s in samples}) > 1:
        return [x for s in samples for x in s]
    return [min(xs) for xs in zip(*samples)]


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(ALLOWED_CPUS),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _spin(n: int = 200_000) -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(n):
        total += i * i
    return time.perf_counter() - t0


def pin_to_fastest_cpu():
    """Pin this process to the allowed CPU that runs a short probe fastest.

    On a shared host one CPU can run a third slower than another for
    minutes at a time, depending on what else runs on its core, and the
    scheduler does not see it. Probing before each pass keeps the passes on
    the least contended CPU.
    """
    os.sched_setaffinity(0, {min(sorted(ALLOWED_CPUS), key=_probe)})


def _probe(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    return min(_spin() for _ in range(3))


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def end_to_end_metrics(setup_s, passes, per_sentence_ms, latency,
                       trains: bool) -> dict[str, tuple[float, str]]:
    if trains:
        sents_per_s = passes[0].main_sents / sum(fastest([p.main_s for p in passes]))
    else:
        sents_per_s = len(per_sentence_ms) / (sum(per_sentence_ms) / 1e3)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "sents_per_s": (sents_per_s, "1/s"),
        "infer_ms_p50": (latency["p50"], "ms"),
        "infer_ms_p75": (latency["p75"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mean_loss": (passes[0].mean_loss, "nats"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the lexner sources: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    prepared = workload.prepare(args.seed)
    setup_s = []

    def timed_setup():
        pin_to_fastest_cpu()
        state, seconds = timed(workload.setup, args.seed, **prepared)
        setup_s.append(seconds)
        return state

    # Set-ups are spread over the run, like the passes, so that their
    # median does not hang on the host's speed during one second of it.
    # The passes use the first set-up's state.
    state = timed_setup()
    for _ in range(SETUPS_FIRST - 1):
        timed_setup()
    passes, pass_s = [], []
    start = time.perf_counter()
    # start another pass only while a typical one still ends in time
    while (len(passes) < MIN_PASSES or time.perf_counter() - start
           + statistics.median(pass_s) <= args.seconds):
        if passes:
            for _ in range(SETUPS_PER_PASS):
                timed_setup()
        pin_to_fastest_cpu()
        result, seconds = timed(workload.run_pass, state)
        passes.append(result)
        pass_s.append(seconds)
    # the rest of the time adds latency samples
    pin_to_fastest_cpu()
    fill, fill_s = timed(workload.fill, state, start + args.seconds)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{sum(pass_s):.1f} s, then {fill_s:.1f} s of inference")

    if args.trace:
        pin_to_fastest_cpu()
        with tracing.Tracer() as tracer:
            passes.append(workload.run_pass(workload.setup(args.seed, **prepared)))
        traced_s = tracer.t1 - tracer.t0
        # the traced set-up and pass do the work of the first untraced ones
        overhead = traced_s / (setup_s[0] + pass_s[0])
        spans_path = os.path.join(workloads.OUT_DIR,
                                  f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"traced set-up and pass: {traced_s:.1f} s, "
              f"{len(tracer.spans)} spans written to {spans_path}")

    checked = passes + [fill]
    failures = [msg for p in checked for msg in p.failures]
    failed = sum(p.failed for p in checked)
    attempted = sum(p.attempted for p in checked)
    losses = {p.mean_loss for p in passes}
    if len(losses) != 1:
        failures.append(f"same-seed passes disagree on the mean loss: {sorted(losses)}")
        failed += 1
    per_sentence_ms = [ms for ms in fastest([p.infer_ms for p in checked])
                       if ms < math.inf]
    latency = latency_summary(per_sentence_ms)
    first = passes[0]
    print("environment: " + json.dumps(environment()))
    print(f"shape: {latency['samples']} inferred sentences, "
          f"{first.spans / latency['samples']:.1f} spans per sentence, "
          f"survivor share at rho 0 {first.survivors / max(first.spans, 1):.3f}")
    print(f"latency percentiles over {latency['samples']} sentences, "
          f"{latency['beyond_p75']} beyond p75")
    print(f"error_rate {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    for msg in sorted(set(failures))[:20]:
        print(f"check failed: {msg}")

    if args.trace:
        metrics = tracing.layer_metrics(tracer, overhead)
    else:
        metrics = end_to_end_metrics(setup_s, passes, per_sentence_ms, latency,
                                     workload.trains)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
