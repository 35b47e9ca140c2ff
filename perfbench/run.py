"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload fig6-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload case-studies --steady 5

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the layer
ledger of a traced run of the same workload (see ledger.py).
``--steady K`` runs the workload in K fresh processes (seeds
``--seed`` .. ``--seed``+K-1) and reports each end-to-end metric's
median, quartiles and spread against its bound in BENCHMARK.json, then
checks that the ledger's counts repeat exactly across two traced runs
under different hash seeds.

Run it from the repository root; it needs ``src/repro`` beside it.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("fig6-sweep", "case-studies", "serve-mixed")
SETUP_PROBES = 5
#: Kernel time at the reference speed (its typical time between the
#: solver's work on a 2-core x86-64 VM); see SpeedMeter.
KERNEL_NOMINAL_S = 0.000060
#: Metrics reported at reference speed; the rest are reported raw
#: (README.md, "Speed scaling", has the measurements behind the choice).
SCALED = ("setup_s", "wall_s", "verdict_p50_ms", "verdict_p95_ms")
#: Ledger counts whose run-to-run equality --steady checks.
DETERMINISTIC = ("fig6-sweep", "case-studies")


def kernel() -> float:
    """Time a fixed pure-Python burst of small-object allocation.

    It touches nothing of the program under test, so its time moves
    only with the machine.  Of four candidates sampled beside eight
    fig6-sweep processes, this one tracked the solver best (correlation
    0.95 with round time): scaling by it cut the run-to-run spread of
    round times from 11.5% to 4.9%, where a 32 MB random walk reached
    7.8%, a clause-scan over an 8 MB arena 6.5% and an integer loop
    6.4%.
    """
    gc.disable()  # a collection would scan the program's heap
    start = time.perf_counter()
    rows = []
    for i in range(150):
        rows.append([i, i + 1, (i, i * 2)])
    index = {row[0]: row for row in rows}
    elapsed = time.perf_counter() - start
    gc.enable()
    if len(index) != len(rows):  # keeps the work observable
        raise AssertionError
    return elapsed


class SpeedMeter:
    """Samples ``kernel()`` every ``INTERVAL`` seconds from SIGALRM.

    The handler runs in the main thread between bytecodes, so samples
    are spread evenly over the timed work.  ``factor(t0, t1)`` is the
    mean of ``KERNEL_NOMINAL_S / kernel`` over the samples in that
    window: multiplying a time by it gives the time at reference speed.
    ``spent`` is the handler's own time, which the harness subtracts
    from operations that run in the main thread.
    """

    INTERVAL = 0.02

    def __init__(self):
        self.times: list[float] = []
        self.speed: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.speed.append(KERNEL_NOMINAL_S / kernel())
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - 2 * self.INTERVAL)
        hi = bisect.bisect_right(self.times, t1)
        window = self.speed[lo:hi] or self.speed[-3:] or [1.0]
        return statistics.fmean(window)


def pin_environment() -> list[str]:
    """Clear every REPRO_* variable; queries set jobs/certify themselves.

    A leaked ``REPRO_JOBS=2`` would start portfolio worker processes, a
    leaked ``REPRO_CACHE`` would answer from a previous run: either
    measures a different program.
    """
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def pin_cpu() -> int:
    """Run this process and its threads on one CPU.

    The speed kernel runs in the main thread; on serve-mixed the work
    runs in other threads, which the scheduler would otherwise keep on
    the other core while the kernel samples an idle one.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def quantile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ----- one run -----------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh process to its first operation,
    raw and at reference speed (the probe samples its own speed)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    fields = line.split()
    if proc.wait() != 0 or len(fields) != 2 or fields[0] != "ready":
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed, elapsed * float(fields[1])


def setup_probe(args, workdir) -> None:
    """Set the workload up as a run would, then report and stop."""
    start = time.perf_counter()
    with SpeedMeter() as meter:
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        factor = meter.factor(start, time.perf_counter())
    print(f"ready {factor:.6f}", flush=True)
    wl.close()


def measure(args, workdir) -> dict:
    meter = SpeedMeter()
    if args.trace:
        # No sampler: the ledger's raw times then add up to the wall.
        return _measure(args, workdir, meter)
    with meter:
        return _measure(args, workdir, meter)


def _measure(args, workdir, meter) -> dict:
    setup = []
    if not args.trace:
        setup = [probe_setup(args.workload, args.seed)
                 for _ in range(SETUP_PROBES)]
    import workloads
    from ledger import Ledger

    ledger = Ledger()
    if args.trace:
        ledger.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    main = threading.main_thread()

    def timed(fn):
        """Run one operation: (answer, (raw, scaled) seconds, error)."""
        spent = meter.spent
        start = time.perf_counter()
        try:
            answer = ledger.root(fn) if args.trace else fn()
            error = None
        except Exception as exc:  # an operation that fails is counted
            answer, error = None, repr(exc)
        end = time.perf_counter()
        raw = end - start
        if threading.current_thread() is main:
            raw -= meter.spent - spent
        return answer, (raw, raw * meter.factor(start, end)), error

    walls, rounds_ops, wrong = [], [], []
    began = time.perf_counter()
    try:
        while True:
            wl.prepare()
            ledger.active = bool(args.trace)
            spent = meter.spent
            start = time.perf_counter()
            results = wl.run_round(timed)
            end = time.perf_counter()
            ledger.active = False
            raw = end - start - (meter.spent - spent)
            walls.append((raw, raw * meter.factor(start, end)))
            rounds_ops.append([r[:3] for r in results])
            wrong += wl.check_round(results)
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / len(walls) > args.seconds:
                break
        wrong += wl.final_checks()
    finally:
        wl.close()
    for message in wrong:
        print(f"WRONG ANSWER: {message}")
    ops = [op for ops_ in rounds_ops for op in ops_]
    failed = [r for r in ops if r[2]]
    for label, _, error in failed:
        print(f"FAILED: {label}: {error}")

    rounds = len(walls)
    print(f"workload {args.workload} seed {args.seed}: {rounds} round(s),"
          f" {len(ops)} verdicts, {len(meter.speed)} speed samples,"
          f" mean speed {statistics.fmean(meter.speed or [1.0]):.4f}"
          " of reference")
    print("  rounds (raw/reference s): " + " ".join(
        f"{raw:.3f}/{scaled:.3f}" for raw, scaled in walls))
    by_label: dict[str, list] = {}
    for label, seconds, error in ops:
        if not error:
            by_label.setdefault(label, []).append(seconds)
    for label, times in by_label.items():
        raw, scaled = _median_pair(times)
        print(f"  op {label:14s} x{len(times):<4d} median raw"
              f" {raw * 1e3:10.1f} ms, at reference speed"
              f" {scaled * 1e3:10.1f} ms")
    if args.trace:
        metrics = ledger.metrics(rounds)
        metrics["traced_wall_s"] = sum(w[0] for w in walls) / rounds
        metrics["traced_busy_s"] = sum(r[1][0] for r in ops) / rounds
        units = {name: "s" if name.endswith("_s") else "count"
                 for name in metrics}
        for name, value in metrics.items():
            print(f"  {name:28s} {value:14.6f} {units[name]}")
    else:
        metrics, units = {}, {}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for name, unit, pair in (
            ("setup_s", "s", _median_pair(setup)),
            ("wall_s", "s", _median_pair(walls)),
            ("verdict_p50_ms", "ms", _quantile_pair(rounds_ops, 0.50)),
            ("verdict_p95_ms", "ms", _quantile_pair(rounds_ops, 0.95)),
            ("peak_rss_mb", "MB", (rss, rss)),
        ):
            raw, scaled = pair
            metrics[name] = scaled if name in SCALED else raw
            units[name] = unit
            print(f"  {name:16s} raw {raw:12.4f}  at reference speed"
                  f" {scaled:12.4f}  reported {metrics[name]:12.4f} {unit}")
    return {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _median_pair(pairs):
    return (statistics.median(p[0] for p in pairs),
            statistics.median(p[1] for p in pairs))


def _quantile_pair(rounds_ops, q):
    """Quantile ``q``, in ms, over the verdicts of one round.

    Every round returns the same operations in the same positions;
    each counts once, with its median time over the rounds, so a single
    slow round cannot become the tail of a short workload.
    """
    per_op: dict[int, list] = {}
    for ops in rounds_ops:
        for i, (_, seconds, error) in enumerate(ops):
            if not error:
                per_op.setdefault(i, []).append(seconds)
    times = [_median_pair(v) for v in per_op.values()] or [(0.0, 0.0)]
    return (quantile([t[0] for t in times], q) * 1e3,
            quantile([t[1] for t in times], q) * 1e3)


# ----- steadiness mode ---------------------------------------------------------


def _child(args, seed, trace, env=None):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"run failed ({out.returncode}): {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def steady(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    runs = [_child(args, args.seed + i, 0) for i in range(args.steady)]
    ok = all(r["correct"] for r in runs)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, correct={ok},"
          f" failed shares {sorted(shares)}")
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>8s} {'bound':>6s}")
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
        if name != "setup_s" and spread > bounds[name]:
            ok, flag = False, "  > bound"
        print(f"{name:16s} {med:12.4f} {q1:12.4f} {q3:12.4f}"
              f" {spread:8.4f} {bounds[name]:6.2f}{flag}")
    if args.workload in DETERMINISTIC:
        from ledger import COUNTS

        traced = [
            _child(args, args.seed + i, 1,
                   env={**os.environ, "PYTHONHASHSEED": str(i + 1)})
            for i in range(2)
        ]
        differ = 0
        for name in COUNTS:
            seen = {t["metrics"][name]["value"] for t in traced}
            if len(seen) != 1:
                differ += 1
                print(f"count {name} differs across hash seeds:"
                      f" {sorted(seen)}")
        print(f"ledger counts: {len(COUNTS) - differ} of {len(COUNTS)}"
              " identical across hash seeds")
        ok = ok and not differ
    return 0 if ok and len(shares) == 1 else 1


# ----- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="K", default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro; run from a"
              " checkout of the repository", file=sys.stderr)
        return 2
    cleared = pin_environment()
    if args.steady:
        return steady(args)
    sys.path[:0] = [SRC, HERE]

    cpu = pin_cpu()
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.setup_probe:
            setup_probe(args, workdir)
            return 0
        print(f"pinned: cleared {cleared or 'no'} REPRO_* variables;"
              " every query passes jobs=1 and certify explicitly;"
              f" running on CPU {cpu}")
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
