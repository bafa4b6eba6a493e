"""cscglue benchmark runner.

Usage, from the root of a checkout::

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each invocation is one fresh, single-threaded process that times one
workload in a closed loop (one caller; each item starts when the previous
one returns).  The workload's item list is one pass; the run repeats
whole passes until ``--seconds`` of wall time have passed.  Checks and
the output digest run on the first pass, outside the timed calls.  A
call's time is the CPU time of its thread (``time.thread_time``), which
leaves out time the process spends descheduled, scaled to a reference
machine speed by a calibration timed around the call (``calibrate.py``).
An item's time is the median of its scaled times over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it alternates untraced passes with passes in which
every listed library function is wrapped (see ``spans.py``), and reports
every figure per traced pass, with the difference in item time per pass
as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# Single-threaded numerics, set before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

from calibrate import REFERENCE_S, SpeedMeter, calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("exact-sweep", "pipeline-batch", "metric-verify")

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p_hi", "ms"),
    ("peak_rss_mb", "MB"),
)

SETUP_RUNS = 9
MIN_PASSES = 3
IMPORTTIME_RUNS = 3
SUBPROCESS_TIMEOUT_S = 60
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)

# The calibration imports ``fractions``, which cscglue imports too, so the
# child calibrates only after the timed import: the median of five, the
# first of which warm the loops up.
SETUP_SNIPPET = (
    "import time\n"
    "t = time.process_time(); import cscglue.cli; t = time.process_time() - t\n"
    "from calibrate import calibrate\n"
    "print(repr(t), repr(sorted(calibrate(time.process_time) for _ in range(5))[2]))"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cscglue benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "cscglue", "cli.py")):
        print(f"error: no cscglue sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    _time_setup()  # warm-up: the first import after a checkout compiles bytecode
    if args.trace:
        import_s = _median_importtimes(("cscglue.cli", "cscglue.metricnum"))

    sys.path.insert(0, SRC)
    import cscglue
    import numpy

    if not os.path.abspath(cscglue.__file__).startswith(SRC + os.sep):
        print(f"error: imported cscglue from {cscglue.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS, known_defect

    workload = WORKLOADS[args.workload](
        args.seed, ROOT, os.path.join(OUT, f"work-{args.workload}")
    )
    n = len(workload.items)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            plain, traced = measure(workload, args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = (plain, traced)
        # Per traced pass, so the figures do not grow with the pass count.
        metrics = tracer.metrics(traced.passes)
        metrics["cli.import_s"] = import_s["cscglue.cli"]
        metrics["metricnum.import_s"] = import_s["cscglue.metricnum"]
        metrics["metricnum.check_margin_worst"] = plain.margin
        metrics["trace.overhead_s"] = sum(traced.item_times()) - sum(plain.item_times())
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.csv.gz"))
    else:
        # Set-up samples are taken between passes and after the run, so
        # they spread over the run's time like the item times do.
        setups = []

        def sample_setup():
            if len(setups) < SETUP_RUNS:
                setups.append(_time_setup())

        plain, _ = measure(workload, args.seconds, min_passes=MIN_PASSES, between=sample_setup)
        setups += [_time_setup() for _ in range(SETUP_RUNS - len(setups))]
        phases = (plain,)
        # Throughput from each item's median time; the percentiles over
        # every timed call, with the percentile chosen by the item count.
        pct = p_hi_percentile(n)
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": n / sum(plain.item_times()),
            "item_ms_p50": nearest_rank(plain.scaled, 50.0) * 1e3,
            "item_ms_p_hi": nearest_rank(plain.scaled, pct) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    passes = sum(ph.passes for ph in phases)
    # Every item is checked once per kind of pass, on the first pass, so
    # the counts depend on the seed only, not on how many passes ran.
    attempted = n
    failed = sum(1 for i in range(n) if any(ph.fails[i] for ph in phases))
    # (check, known seed defect?) -> items failing it on the first pass.
    by_check = Counter()
    for item, names in zip(workload.items, plain.fails):
        by_check.update((name, known_defect(item, name) is not None) for name in names)
    new = {name for ph in phases for item, names in zip(workload.items, ph.fails)
           for name in names if known_defect(item, name) is None}
    digests = {ph.digest for ph in phases}
    correct = not new and len(digests) == 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{n} items per pass, {passes} passes, {attempted} items checked, {failed} failed")
    for (name, is_known), count in sorted(by_check.items()):
        note = "known seed defect" if is_known else "new failure"
        print(f"  check {name} fails on {count} of {n} items ({note})")
    for ph, label in zip(phases, ("untraced", "traced")):
        print(f"digest {args.workload} {label} sha256 {ph.digest} over the first pass")
    if not args.trace:
        beyond = n - math.ceil(pct / 100.0 * n)
        print(f"item_ms_p_hi is p{pct:g} of {len(plain.scaled)} call times, {plain.passes} passes "
              f"of {n} items ({beyond} items beyond it in a pass)")
    record = {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_pass": n,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "calibration_reference_s": REFERENCE_S,
        "calibration_median_s": statistics.median(plain.calibrations),
    }
    if not args.trace:
        record.update({"p_hi_percentile": pct, "call_samples": len(plain.scaled)})
    print("record " + json.dumps(record))
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


class Phase:
    """Item times, failures and the first-pass digest of one kind of pass."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.meter = SpeedMeter()
        self.scaled = []  # per pass, per item: scaled CPU time of the call
        self.calibrations = []  # every calibration time of the run
        self.passes = 0
        self.fails = [()] * len(workload.items)
        self._digest = hashlib.sha256()
        self.margin = 0.0

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def item_times(self):
        """Each item's median scaled time over the passes, in item order."""
        n = len(self.workload.items)
        return [statistics.median(self.scaled[i::n]) for i in range(n)]

    def run_pass(self):
        """Run every item once; only the library call is timed.

        The first pass also checks and digests every output; later passes
        repeat the same inputs.  Each call's CPU time, less the meter's
        share, is scaled by the mean of the calibrations right before it,
        inside it and right after it.
        """
        workload, tracer, meter = self.workload, self.tracer, self.meter
        first = self.passes == 0
        with meter:
            before = calibrate(thread_time)
            for index, item in enumerate(workload.items):
                error = None
                if tracer is not None:
                    tracer.item = self.passes * len(workload.items) + index
                    tracer.on = True
                meter.arm()
                start = thread_time()
                try:
                    out = workload.run(item)
                except Exception as exc:  # counted as a failed item, run goes on
                    out, error = None, exc
                elapsed = thread_time() - start
                inside, stolen = meter.disarm()
                if tracer is not None:
                    tracer.on = False
                after = calibrate(thread_time)
                speed = statistics.fmean([before, after, *inside])
                self.scaled.append((elapsed - stolen) * REFERENCE_S / speed)
                self.calibrations += [before, *inside]
                before = after
                if first:
                    self._check(index, item, out, error)
                del out
        self.passes += 1

    def _check(self, index, item, out, error):
        """Record the item's failed checks and digest its exact output."""
        workload = self.workload
        try:
            if error is not None:
                raise error
            self.fails[index] = tuple(workload.check(item, out))
            text = workload.serialize(item, out)
            if hasattr(workload, "margin"):
                self.margin = max(self.margin, workload.margin(out))
        except Exception as exc:  # a crash in the call or its check fails the item
            self.fails[index] = (f"exception:{type(exc).__name__}",)
            text = f"{index}|{type(exc).__name__}\n"
        self._digest.update(text.encode())


def measure(workload, seconds, min_passes=1, tracer=None, between=None):
    """Run whole passes until ``seconds`` of wall time and ``min_passes``.

    With a tracer, untraced and traced passes alternate, so a slow spell
    of the machine falls on both alike; returns the two phases.
    ``between`` is called after each pass, outside the timed calls.
    """
    plain = Phase(workload)
    traced = Phase(workload, tracer) if tracer is not None else None
    start = perf_counter()
    while perf_counter() - start < seconds or plain.passes < min_passes:
        plain.run_pass()
        if traced is not None:
            traced.run_pass()
        if between is not None:
            between()
    return plain, traced


def p_hi_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it;
    the median when there are fewer than twenty samples."""
    for pct in reversed(PERCENTILE_LADDER):
        if samples - math.ceil(pct / 100.0 * samples) >= 10:
            return pct
    return PERCENTILE_LADDER[0]


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_all(args) -> int:
    """Run every workload, each in its own fresh process."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((SRC, HERE))
    return env


def _time_setup() -> float:
    """Scaled CPU time of ``import cscglue.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    elapsed, speed = map(float, done.stdout.strip().splitlines()[-1].split())
    return elapsed * REFERENCE_S / speed


def _median_importtimes(modules) -> dict:
    """Median cumulative ``-X importtime`` seconds of each module."""
    values = {m: [] for m in modules}
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cscglue.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in values:
                values[fields[2].strip()].append(int(fields[1]) / 1e6)
    return {m: statistics.median(v) for m, v in values.items()}


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return done.stdout.strip() or None


def _tree_digest(top: str) -> str:
    """SHA-256 over the relative paths and bytes of the .py files under top."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


if __name__ == "__main__":
    sys.exit(main())
