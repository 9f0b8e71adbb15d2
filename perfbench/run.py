"""Benchmark for kippenhahn: four seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --profile [--workload solve]

Each workload is a closed loop with one caller: the next item starts when
the previous one has finished and been checked.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs every item twice,
plain and traced, and reports the per-layer metrics.  The last line of
standard output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
MAX_REPORTED_FAILURES = 5
# seeds the warm-up's inputs apart from the timed ones
WARMUP_SALT = 0x5EED


def _import_package():
    """Import kippenhahn from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import kippenhahn
    except ImportError as exc:
        sys.exit(f"error: cannot import kippenhahn from {SRC}: {exc}")
    if Path(kippenhahn.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: kippenhahn was imported from {kippenhahn.__file__}, not {SRC}")


_import_package()

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Latencies and failures of the items one loop attempted.

    An item's latency is the CPU time the process spent in it, all threads
    counted: on a host shared with other tenants, the wall clock also counts
    the stretches in which the scheduler runs someone else.  With a speed
    gauge on, the gauge's kernel time is taken out of each latency, and each
    item keeps the slowdown the gauge saw during it.
    """

    def __init__(self, gauge=None):
        self.gauge = gauge
        self.latencies = []
        self.by_slot = defaultdict(list)  # cycle slot -> [(latency, slowdown)]
        self.attempted = 0
        self.failed = 0

    def attempt(self, item, slot, tracer=None):
        """Run one item (traced when a tracer is given), time it, check it.

        Returns the item's output, or None when it raised.
        """
        self.attempted += 1
        scope = tracer.item() if tracer else contextlib.nullcontext()
        out = None
        try:
            with scope:
                first = len(self.gauge.ticks) if self.gauge else 0
                start, cpu_start = time.perf_counter(), time.process_time()
                try:
                    out = item.run()
                finally:
                    cpu_end, end = time.process_time(), time.perf_counter()
                    latency = cpu_end - cpu_start
                    slowdown = None
                    if self.gauge:
                        ticks = self.gauge.within(first, start, end)
                        latency -= sum(cpu for _, _, cpu in ticks)
                        slowdown = speed.slowdown(ticks)
                    self.latencies.append(latency)
                    self.by_slot[slot].append((latency, slowdown))
            item.check(out)
        except Exception:  # an item that raises counts as failed; keep going
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {item.kind}:\n{traceback.format_exc()}", file=sys.stderr)
        return out

    def items_per_s(self):
        return (self.attempted - self.failed) / sum(self.latencies)


def measure_setup(name, seed):
    """Median time from a fresh interpreter to the first completed item."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        # CLOCK_MONOTONIC is system-wide, so the child's reading compares
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def probe(name, seed):
    workloads.WORKLOADS[name].cycle(random.Random(seed))[0].run()
    print(time.monotonic())


def _cycles(seconds):
    """Yield once per cycle: as many whole cycles as fit in `seconds`,
    rounded to the nearest count, and at least one.

    Rounding keeps the count steady when one cycle takes about as long as
    the whole run (solve), where stopping at the first cycle past `seconds`
    would flip between one and two cycles with the machine's speed.
    """
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / done >= seconds:
            return


def normalised(runs, run_slowdown):
    """Each run's latency divided by the slowdown the gauge saw during it.

    `runs` holds (latency, slowdown during it) for each run of a slot.  A
    run too short to hold a gauge sample takes the whole run's slowdown.
    """
    return [latency / (slowdown or run_slowdown) for latency, slowdown in runs]


def run_plain(workload, seed, seconds):
    """End-to-end metrics: set-up, then whole cycles for about `seconds`."""
    setup_s = measure_setup(workload.name, seed)
    rng = random.Random(seed)
    # untimed warm-up, on an input that no timed item repeats
    workload.cycle(random.Random(seed ^ WARMUP_SALT))[workload.warmup_slot].run()
    with speed.SpeedGauge() as gauge:
        tally = Tally(gauge)
        for _ in _cycles(seconds):
            for slot, item in enumerate(workload.cycle(rng)):
                tally.attempt(item, slot)
    slowdown = speed.slowdown(gauge.ticks)
    print(f"speed gauge: {slowdown:.4g}x its reference time over {len(gauge.ticks)} samples")
    runs = [normalised(slot_runs, slowdown) for slot_runs in tally.by_slot.values()]
    slots = [statistics.fmean(latencies) for latencies in runs]
    metrics = {
        "setup_s": setup_s,
        "items_per_s": (tally.attempted - tally.failed) / sum(map(sum, runs)),
        "p50_ms": 1e3 * statistics.median(slots),
        "p90_ms": 1e3 * statistics.quantiles(slots, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics


def run_traced(workload, seed, seconds, items=None):
    """Per-layer metrics: each item runs twice on one input, plain and traced."""
    rng = random.Random(seed)
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    labelled = agreed = 0
    for _ in _cycles(seconds if items is None else 0):
        cycle = workload.cycle(rng)
        for slot, item in enumerate(cycle[:items]):
            # alternate which of the pair runs first, so warm caches favour neither
            if slot % 2:
                out = traced.attempt(item, slot, tracer)
                plain.attempt(item, slot)
            else:
                plain.attempt(item, slot)
                out = traced.attempt(item, slot, tracer)
            if item.label:
                labelled += 1
                agreed += getattr(out, "kind", None) == item.label
    metrics = tracer.summary()
    plain_ips, traced_ips = plain.items_per_s(), traced.items_per_s()
    # standard error of the overhead, from the spread of the paired differences
    extra = [t - p for t, p in zip(traced.latencies, plain.latencies)]
    overhead_se = (statistics.stdev(extra) * len(extra) ** 0.5 / sum(plain.latencies)
                   if len(extra) > 1 else 0.0)
    metrics.update({
        "classify.agree_frac": agreed / labelled if labelled else 0.0,
        "trace.items_per_s_untraced": plain_ips,
        "trace.items_per_s_traced": traced_ips,
        "trace.overhead_items_per_s": traced_ips - plain_ips,
        "trace.overhead_frac": sum(traced.latencies) / sum(plain.latencies) - 1.0,
        "trace.overhead_frac_se": overhead_se,
    })
    # the wrapped layers account for the item time when what they leave out
    # is no larger than the tracing overhead, within two standard errors
    bound = abs(metrics["trace.overhead_frac"]) + 2 * overhead_se
    verdict = "within" if metrics["trace.unattributed_frac"] <= bound else "ABOVE"
    print(f"unattributed {metrics['trace.unattributed_frac']:.4g} is {verdict} "
          f"|overhead| + 2 se = {bound:.4g}")
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    return tally, metrics


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(name, tally, metrics, specs):
    """Print every metric with its unit; return the result object."""
    print(f"{name}: {tally.attempted} items attempted, {tally.failed} failed, "
          f"failed_frac {tally.failed / max(tally.attempted, 1):.6g}")
    out = {}
    for spec in specs:
        value = float(metrics[spec["name"]])
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        extra = (f" ({len(tally.by_slot)} slots, {tally.attempted} runs)"
                 if spec["name"] == "p90_ms" else "")
        print(f"  {spec['name']:<40} {value:>14.6g} {spec['unit']}{extra}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": out}


def smoke(seed):
    """Every workload on a few items, checked, plain and traced."""
    specs = load_spec()["per_layer"]
    ok = True
    for workload in workloads.WORKLOADS.values():
        tally, metrics = run_traced(workload, seed, 0, items=workload.smoke_items)
        report(workload.name, tally, metrics, specs)
        ok &= tally.failed == 0
    setup_s = measure_setup("screen", seed)
    print(f"screen set-up probe: median {setup_s:.4f} s")
    print("smoke: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def profile(names, seed, top=30):
    """cProfile one cycle per workload, untimed; top functions by self time."""
    OUT.mkdir(exist_ok=True)
    for name in names:
        items = workloads.WORKLOADS[name].cycle(random.Random(seed))
        prof = cProfile.Profile()
        prof.enable()
        for item in items:
            item.run()
        prof.disable()
        buf = io.StringIO()
        pstats.Stats(prof, stream=buf).strip_dirs().sort_stats("tottime").print_stats(top)
        path = OUT / f"profile-{name}.txt"
        path.write_text(f"cProfile of one {name} cycle ({len(items)} items), seed {seed}\n"
                        + buf.getvalue())
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="quick check of every workload")
    ap.add_argument("--profile", action="store_true", help="write cProfile dumps")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    if args.profile:
        return profile([args.workload] if args.workload else list(workloads.WORKLOADS),
                       args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    workload = workloads.WORKLOADS[args.workload]
    spec = load_spec()
    if args.trace:
        tally, metrics = run_traced(workload, args.seed, args.seconds)
        result = report(workload.name, tally, metrics, spec["per_layer"])
    else:
        tally, metrics = run_plain(workload, args.seed, args.seconds)
        result = report(workload.name, tally, metrics, spec["end_to_end"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
