"""Benchmark for the siphons package: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ./src and
writes spans, profiles and its model corpus under ./.perfbench.

--trace 0 times whole passes over the workload for --seconds (at least two
passes) and reports the end-to-end metrics: each operation's median over
the passes, scaled by a yardstick (see Yardstick). --trace 1 runs one
untraced pass, one pass with spans around every module's public functions,
and one under cProfile, and reports the per-layer metrics in raw wall time
and the tracing overhead.
Either way every output is certified (see certify.py), the search counters
must repeat exactly across passes and across runs of the same seed on the
same source, and the last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import cProfile
import gc
import hashlib
import io
import json
import pstats
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from certify import Arcs, greatest_siphon_within  # noqa: E402  (needs HERE on the path)
from tracing import Tracer, layer_metrics  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package(root):
    """Import siphons from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "siphons" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}/siphons; "
                         "run from the repository root")
    sys.path.insert(0, str(src))
    import siphons
    if Path(siphons.__file__).resolve().parent != (src / "siphons").resolve():
        raise SystemExit(f"error: siphons was imported from {siphons.__file__}")


class FirstSetClock:
    """Reads the clock at the first PetriNet.is_siphon call of each operation.

    Both engines certify each set they emit with one `is_siphon` call on
    the net they were given, so that call marks the first emitted set.
    """

    def __init__(self, petri_net_class):
        self.cls = petri_net_class
        self.original = petri_net_class.is_siphon
        self.first = None

    def __enter__(self):
        original = self.original

        def is_siphon(net, s):
            if self.first is None:
                self.first = time.perf_counter()
            return original(net, s)
        self.cls.is_siphon = is_siphon
        return self

    def __exit__(self, *exc):
        self.cls.is_siphon = self.original


class Yardstick:
    """Fixed pure-Python work that tells how fast the machine runs right now.

    On a shared machine the same deterministic call can take twice as long
    a minute later. Timing this fixed graph fixpoint between operations and
    dividing each operation by the median of the readings around it
    cancels most of that drift: over six runs of each workload, the
    run-to-run spread of the metrics was 0.07-0.22 unscaled and 0.02-0.07
    scaled. Two readings on each side did better than one or than five,
    and one pass over a graph of 10000 places did better than twenty over
    400 places, whose data stays in cache while the engines' does not.
    Scaled times read as milliseconds on a machine where one reading takes
    REFERENCE_MS.
    """

    REFERENCE_MS = 15.0
    WINDOW = 2  # readings taken on each side of an operation
    PLACES, TRANSITIONS, ROUNDS = 10000, 7500, 1

    def __init__(self):
        rng = random.Random(0)
        consume = {(rng.randrange(self.PLACES), t): 1
                   for t in range(self.TRANSITIONS) for _ in range(2)}
        produce = {(t, rng.randrange(self.PLACES)): 1
                   for t in range(self.TRANSITIONS) for _ in range(2)}
        self.arcs = Arcs(self.PLACES, self.TRANSITIONS, consume, produce)
        self.everything = frozenset(range(self.PLACES))
        self.readings = []

    def read(self):
        """Take one reading; returns its index."""
        start = time.perf_counter()
        for p in range(self.ROUNDS):
            greatest_siphon_within(self.arcs, self.everything - {p})
        self.readings.append((time.perf_counter() - start) * 1000.0)
        return len(self.readings) - 1

    def scale(self, at):
        """Factor for a time measured just before reading `at`."""
        window = self.readings[max(0, at - self.WINDOW):at + self.WINDOW]
        return self.REFERENCE_MS / statistics.median(window)


@dataclass(slots=True)
class Outcome:
    """One operation of one pass; `measure` scales the raw times."""

    key: str
    engine: str
    wall_ms: float
    first_ms: float | None
    at: int | None  # index of the yardstick reading right after the operation
    output: object


def run_pass(workload, inputs, rng, reference, first_clock=None, yardstick=None):
    """One closed-loop pass over every operation, in a seeded order.

    `reference` maps each key to the first output seen for it; an equal
    output later shares its value, so memory does not grow with the number
    of passes. With a yardstick, a reading follows every operation.
    """
    from workloads import Output
    ops = workload.operations(inputs)
    rng.shuffle(ops)
    gc.collect()
    outcomes = []
    if yardstick:
        yardstick.read()
    for op in ops:
        if first_clock is not None:
            first_clock.first = None
        start = time.perf_counter()
        try:
            raw, error = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        at = yardstick.read() if yardstick else None
        first_ms = None
        if first_clock is not None and first_clock.first is not None:
            first_ms = (first_clock.first - start) * 1000.0
        if error is None:
            try:
                output = op.digest(raw)
            except (KeyError, TypeError, ValueError) as exc:
                output = Output(0, None, (), f"unreadable output: {exc}")
        else:
            output = Output(0, None, (), error)
        first = reference.setdefault(op.key, output)
        if first is not output and first.value == output.value:
            output.value = first.value
        outcomes.append(Outcome(op.key, op.engine, (end - start) * 1000.0, first_ms, at,
                                output))
    return outcomes


def source_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "siphons").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def verify(workload, inputs, passes, counts_file, source):
    """Keys of failed operations, with the reasons.

    The first pass is the reference: its outputs are certified, every later
    pass must repeat its outputs and counters exactly, and so must an
    earlier run of the same seed on the same source, recorded in
    `counts_file`.
    """
    problems = {}
    reference = {o.key: o.output for o in passes[0]}
    for outcomes in passes:
        for o in outcomes:
            if o.output.error:
                problems.setdefault(o.key, []).append(o.output.error)
            elif (o.output.value, o.output.counts) != (reference[o.key].value,
                                                        reference[o.key].counts):
                problems.setdefault(o.key, []).append("differs from the first pass")
    values = {key: out.value for key, out in reference.items()}
    if not any(out.error for out in reference.values()):
        for key, bad in workload.check(inputs, values).items():
            problems.setdefault(key, []).extend(bad)
    counts = {key: list(out.counts) for key, out in reference.items()}
    if counts_file.is_file():
        earlier = json.loads(counts_file.read_text())
        if earlier["source"] == source:
            for key, value in counts.items():
                if earlier["counts"].get(key, value) != value:
                    problems.setdefault(key, []).append("counters differ from an earlier run")
    counts_file.parent.mkdir(parents=True, exist_ok=True)
    counts_file.write_text(json.dumps({"source": source, "counts": counts}, indent=0))
    return problems


def quantile(values, q):
    """The q-th percentile, interpolated between order statistics."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_times):
    """End-to-end metrics from each operation's median over the passes."""
    per_key = {}
    for outcomes in passes:
        for o in outcomes:
            per_key.setdefault(o.key, []).append(o)
    rows = []
    for runs in per_key.values():
        firsts = [o.first_ms for o in runs if o.first_ms is not None]
        rows.append((runs[0].engine, runs[0].output.sets,
                     statistics.median(o.wall_ms for o in runs),
                     statistics.median(firsts) if firsts else 0.0))
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    for engine in ("sat", "bb"):
        mine = [row for row in rows if row[0] == engine]
        sets = sum(row[1] for row in mine)
        metrics[f"{engine}.ms_per_set"] = (
            sum(row[2] for row in mine) / sets if sets else float("nan"), "ms")
        metrics[f"{engine}.first_set_ms"] = (sum(row[3] for row in mine), "ms")
    walls = [row[2] for row in rows]
    metrics["request_ms.p50"] = (quantile(walls, 50), "ms")
    metrics["request_ms.p90"] = (quantile(walls, 90), "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def timed_setup(workload, seed, work_dir):
    start = time.perf_counter()
    inputs = workload.setup(seed, work_dir)
    return inputs, time.perf_counter() - start


def measure(workload, seed, seconds, work_dir, petri_net_class):
    """Untraced run: set-up timings and whole passes until `seconds` is used."""
    yardstick = Yardstick()
    yardstick.read()
    setups = []
    for _ in range(workload.setup_reps):
        inputs, elapsed = timed_setup(workload, seed, work_dir)
        setups.append((elapsed, yardstick.read()))
    rng = random.Random(seed)
    passes, reference = [], {}
    start = time.perf_counter()
    with FirstSetClock(petri_net_class) as clock:
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(workload, inputs, rng, reference, clock, yardstick))
            now = time.perf_counter()
            if len(passes) >= 2 and now + (now - pass_start) > start + seconds:
                break
    for outcomes in passes:
        for o in outcomes:
            factor = yardstick.scale(o.at)
            o.wall_ms *= factor
            if o.first_ms is not None:
                o.first_ms *= factor
    setup_times = [elapsed * yardstick.scale(at) for elapsed, at in setups]
    print(f"yardstick {statistics.median(yardstick.readings)} ms median of "
          f"{len(yardstick.readings)}, scaled to {Yardstick.REFERENCE_MS} ms")
    return inputs, passes, end_to_end(passes, setup_times)


def profile_line(profiler, out_path, label):
    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text).sort_stats("tottime")
    stats.print_stats(20)
    out_path.write_text(text.getvalue())
    top = []
    for (file, line, func), row in sorted(stats.stats.items(),
                                          key=lambda item: -item[1][2])[:3]:
        top.append(f"{func} ({Path(file).name}:{line}) {row[2]:.3f} s")
    return f"profile {label}: " + "; ".join(top)


def trace(workload, seed, work_dir, out_dir, label):
    """Untraced, traced and profiled pass; per-layer metrics and overhead."""
    rng = random.Random(seed)
    start = time.perf_counter()
    inputs, _ = timed_setup(workload, seed, work_dir)
    reference = {}
    passes = [run_pass(workload, inputs, rng, reference)]
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install(sys.modules)
    try:
        start = time.perf_counter()
        root = tracer.open("bench.run")
        traced_inputs, _ = timed_setup(workload, seed, work_dir)
        passes.append(run_pass(workload, traced_inputs, rng, reference))
        tracer.close(root)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(out_dir / f"{label}.spans.tsv")

    profiler = cProfile.Profile()
    profiler.enable()
    profiled_inputs, _ = timed_setup(workload, seed, work_dir)
    passes.append(run_pass(workload, profiled_inputs, rng, reference))
    profiler.disable()
    print(profile_line(profiler, out_dir / f"{label}.profile.txt", label))

    metrics = layer_metrics(tracer, traced_s, len(passes[1]))
    metrics["trace.wall_ms"] = (traced_s * 1000.0, "ms")
    metrics["trace.untraced_wall_ms"] = (untraced_s * 1000.0, "ms")
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1000.0, "ms")
    return inputs, passes, metrics


def main(argv=None, workloads=None, out_dir=None):
    """Run one workload; `workloads` and `out_dir` let tests run small copies."""
    args = parse_args(argv)
    root = Path.cwd()
    import_package(root)
    import siphons.net
    from workloads import default_workloads
    workloads = default_workloads(root) if workloads is None else workloads
    if args.workload not in workloads:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads)}")
    workload = workloads[args.workload]
    out_dir = root / ".perfbench" if out_dir is None else Path(out_dir)
    work_dir = out_dir / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}"

    if args.trace:
        inputs, passes, metrics = trace(workload, args.seed, work_dir, out_dir, label)
    else:
        inputs, passes, metrics = measure(workload, args.seed, args.seconds, work_dir,
                                          siphons.net.PetriNet)
    problems = verify(workload, inputs, passes, out_dir / "counts" / f"{label}.json",
                      source_digest(root))
    attempted = sum(len(outcomes) for outcomes in passes)
    failed = sum(1 for outcomes in passes for o in outcomes if o.key in problems)
    if args.trace:
        metrics["error_rate"] = (failed / attempted, "ratio")
    for key, bad in sorted(problems.items()):
        print(f"FAILED {key}: {'; '.join(bad[:3])}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} operations, "
          f"{failed} failed, error_rate {failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
