"""etfforge benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload sweep_2_30 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the repository root.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The exit
code is 0 only when every output passed its correctness check.  See
perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

from spans import Tracer, layer_metrics, relative, self_time_rows, uncovered_seconds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sweep_2_30", "certify_large", "d4_projections", "construct_detect")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_PASSES = 2
# Time of reference_task() on a 2-vCPU Xeon VM at its usual speed.  The
# times that become end-to-end metrics are scaled by REF_S / the mean
# time of the reference task next to them; see README.md.
REF_S = 0.05
TICK_INTERVAL_S = 0.5  # between reference tasks inside untraced passes
NO_NK_CERTIFICATE = 1.0  # nk_defect_max when no NK certificate was verified

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "ok_frac": "fraction",
    "nk_defect_max": "1",
    "peak_rss_mb": "MB",
}


def pin_threads():
    """One BLAS/OpenMP thread, and no ETFFORGE_THREADS, for this process
    and its children.  Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ETFFORGE_THREADS", None)


def fresh_import_seconds(modules):
    """Wall time of a new interpreter importing `modules` from src/."""
    code = "import sys; sys.path.insert(0, %r); import %s" % (SRC, ", ".join(modules))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("ETFFORGE_THREADS",)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def reference_task():
    """Wall time of a fixed task that does not use etfforge: many small
    LAPACK calls and a few BLAS products.  The host's core speed drifts
    by tens of per cent within a minute, and this task's time drifts
    with it; the workloads, like this task, spend most of their time in
    the overhead of small numpy calls."""
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.standard_normal((256, 256))
    small = rng.standard_normal((8, 8))
    small = small + small.T
    start = time.perf_counter()
    for _ in range(2000):
        np.linalg.eigh(small)
    for _ in range(8):
        big @ big
    return time.perf_counter() - start


class SpeedProbe:
    """Runs reference_task() from a SIGALRM handler every TICK_INTERVAL_S
    while ticking(), so that the host's speed is sampled during a pass,
    not only between passes.  Each tick is kept as (start, end, reference
    time); within() gives the ticks of a pass."""

    def __init__(self):
        self.ticks = []
        self._on = False

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        ref = reference_task()
        self.ticks.append((start, time.perf_counter(), ref))
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S)

    @contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._on = True
        try:
            self._tick()
            yield self
        finally:
            # a tick that is due runs before the handler goes, and does
            # not re-arm the timer
            self._on = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def samples(self):
        return [ref for _, _, ref in self.ticks]

    def within(self, start, end):
        """The ticks that ran between start and end.  A tick runs between
        two bytecodes of the main thread, so it lies wholly inside or
        wholly outside that interval."""
        return [tick for tick in self.ticks if start <= tick[0] and tick[1] <= end]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_passes(workload, inputs, seed, seconds, trace, probe):
    """Run passes until `seconds` have gone by (at least MIN_PASSES).
    With trace, the first pass is an untraced warm-up and the rest
    alternate traced and untraced, so that trace.overhead_s compares
    warm passes.  A pass's wall time leaves out the probe's ticks, and
    its "ref" is the mean reference time of those ticks (None if none
    fell inside it)."""
    passes = []
    begin = time.perf_counter()
    while True:
        if trace and len(passes) % 2 == 1:
            # a traced pass repeats the in-process set-up under the tracer,
            # so that set-up layers (the solves of certify_large) show too
            tracer = Tracer()
            with tracer.installed():
                inputs = workload.setup(seed)
                workload.prepare(inputs)
                mark = len(tracer.spans)
                start = time.perf_counter()
                output = workload.run(inputs, tracer)
                end = time.perf_counter()
        else:
            tracer, mark = None, 0
            workload.prepare(inputs)
            start = time.perf_counter()
            output = workload.run(inputs, None)
            end = time.perf_counter()
        outcomes, fingerprint = workload.check(inputs, output)
        ticks = probe.within(start, end)
        passes.append({"wall": end - start - sum(t1 - t0 for t0, t1, _ in ticks),
                       "ref": statistics.fmean(ref for _, _, ref in ticks) if ticks else None,
                       "tracer": tracer, "start": start, "mark": mark, "outcomes": outcomes,
                       "fingerprint": fingerprint})
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES + trace and elapsed + typical > seconds:
            return passes


def measure(workload, seed, seconds, trace):
    """Set the workload up SETUPS times, then run passes (run_passes).
    Without trace, a SpeedProbe ticks through the passes; wall_s is the
    median over passes of the pass time x REF_S / the mean reference time
    of the ticks inside that pass (of all ticks, for a pass too short to
    hold one), and setup_s the median set-up time x REF_S / the mean of
    the reference tasks run between the set-ups.  Returns the report
    dict."""
    setup_refs = [reference_task()]
    setup_times = []
    for _ in range(SETUPS):
        imported = fresh_import_seconds(workload.modules)
        start = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(imported + time.perf_counter() - start)
        setup_refs.append(reference_task())

    probe = SpeedProbe()
    # ticks would land inside the spans of a traced pass, so a traced
    # run takes no samples and scales nothing
    with nullcontext() if trace else probe.ticking():
        passes = run_passes(workload, inputs, seed, seconds, trace, probe)

    outcomes = [o for p in passes for o in p["outcomes"]]
    wrong = [o for o in outcomes if o.status == "wrong"]
    first = passes[0]
    repeatable = all(
        p["fingerprint"] == first["fingerprint"]
        and [o.status for o in p["outcomes"]] == [o.status for o in first["outcomes"]]
        for p in passes
    )
    untraced_passes = [p for p in passes[1 if trace else 0 :] if p["tracer"] is None]
    untraced = [p["wall"] for p in untraced_passes]
    traced = [p for p in passes if p["tracer"] is not None]
    defects = [o.nk_defect for o in outcomes if o.nk_defect is not None]
    report = {
        "seed": seed,
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "untraced_quartiles_s": quartiles(untraced),
        "setup_times_s": setup_times,
        "setup_reference_s": setup_refs,
        "pass_start_s": [p["start"] for p in passes],
        "ticks_s": probe.ticks,
        "per_pass": {
            "attempted": len(first["outcomes"]),
            "ok": sum(o.status == "ok" for o in first["outcomes"]),
            "honest": [(o.item, o.note) for o in first["outcomes"] if o.status == "honest"],
        },
        "fingerprint": repr(first["fingerprint"]),
        "repeatable": repeatable,
        "wrong": [(o.item, o.note) for o in wrong],
        "correct": not wrong and repeatable,
        "attempted": len(outcomes),
        "failed": len(wrong),
    }
    if not trace:
        run_ref = statistics.fmean(probe.samples())
        report["pass_at_ref_s"] = [p["wall"] * REF_S / (p["ref"] or run_ref) for p in untraced_passes]
        report["metrics"] = {
            "wall_s": statistics.median(report["pass_at_ref_s"]),
            "setup_s": statistics.median(setup_times) * REF_S / statistics.fmean(setup_refs),
            "ok_frac": sum(o.status == "ok" for o in outcomes) / len(outcomes),
            "nk_defect_max": max(defects) if defects else NO_NK_CERTIFICATE,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["units"] = dict(END_TO_END_UNITS)
        return report

    per_pass = []
    for p in traced:
        values = layer_metrics(p["tracer"].spans, p["tracer"].values)
        values["trace.uncovered_s"] = (uncovered_seconds(p["tracer"].spans[p["mark"]:], p["wall"]), "s")
        per_pass.append(values)
    metrics = {name: statistics.median(v[name][0] for v in per_pass) for name in per_pass[0]}
    units = {name: unit for name, (_, unit) in per_pass[0].items()}
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    units["trace.overhead_s"] = "s"
    report["metrics"], report["units"] = metrics, units
    report["traced_wall_s"] = traced_wall
    last = traced[-1]
    report["self_time"] = self_time_rows(last["tracer"].spans, last["mark"], last["wall"])
    report["spans"] = [
        {"pass": i, "wall_s": p["wall"], "spans": relative(p["tracer"].spans, p["start"])}
        for i, p in enumerate(traced)
    ]
    return report


def _print_human(name, report, env):
    print("workload %s seed=%d passes=%d" % (name, report["seed"], report["passes"]))
    print("environment %s" % json.dumps(env, sort_keys=True))
    per = report["per_pass"]
    print("correctness: %d/%d ok per pass, %d wrong over the run, passes repeatable: %s"
          % (per["ok"], per["attempted"], report["failed"], report["repeatable"]))
    for item, note in per["honest"]:
        print("  honest failure %s: %s" % (item, note))
    for item, note in report["wrong"]:
        print("  WRONG %s: %s" % (item, note))
    if name == "sweep_2_30":
        print("manifest digest %s, identical over all passes: %s"
              % (report["fingerprint"], report["repeatable"]))
    for metric, value in report["metrics"].items():
        print("%-42s %.6g %s" % (metric, value, report["units"][metric]))
    if "ok_frac" in report["metrics"]:
        print("ok_frac base: %d/%d per pass" % (per["ok"], per["attempted"]))
        print("unscaled: median pass %.4g s, quartiles %.4g..%.4g s over %d passes; each pass is"
              " scaled by REF_S %.4g s / the mean reference time of its ticks (%d ticks, mean %.4g s)"
              % (statistics.median(report["pass_wall_s"]), *report["untraced_quartiles_s"],
                 len(report["pass_wall_s"]), REF_S, len(report["ticks_s"]),
                 statistics.fmean(ref for _, _, ref in report["ticks_s"])))
        print("unscaled: median set-up %.4g s, scaled by REF_S / %.4g s, the mean reference time"
              " around the set-ups" % (statistics.median(report["setup_times_s"]),
                                      statistics.fmean(report["setup_reference_s"])))
    if "self_time" in report:
        print("self time of the last traced pass (%.4g s), largest first:" % report["traced_wall_s"])
        print("  %-42s %8s %10s %10s %7s" % ("span", "calls", "s", "self_s", "share"))
        for span, calls, incl, self_s, share in report["self_time"]:
            print("  %-42s %8d %10.4f %10.4f %6.1f%%" % (span, calls, incl, self_s, 100 * share))
        print("  %-42s %8s %10s %10.4f" % ("(no layer span)", "", "", report["metrics"]["trace.uncovered_s"]))


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    lines = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        try:
            lines[name] = json.loads(out[-1])
        except (IndexError, ValueError):
            lines[name] = None  # the workload printed no result line
    print("summary over all workloads:")
    metrics = {}
    for name, result in lines.items():
        if result is None:
            print("  %-18s FAILED: no result line" % name)
            continue
        print("  %-18s correct=%s attempted=%d failed=%d"
              % (name, result["correct"], result["attempted"], result["failed"]))
        for metric, entry in result["metrics"].items():
            print("  %-18s %-42s %.6g %s" % (name, metric, entry["value"], entry["unit"]))
            metrics["%s.%s" % (name, metric)] = entry
    results = [r for r in lines.values() if r is not None]
    ok = len(results) == len(lines) and all(r["correct"] for r in results)
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not os.path.isfile(os.path.join(SRC, "etfforge", "__init__.py")):
        print("error: no etfforge sources under %s" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import etfforge
    from workloads import WORK_DIR, WORKLOADS

    if os.path.dirname(os.path.abspath(etfforge.__file__)) != os.path.join(SRC, "etfforge"):
        print("error: etfforge imported from %s, not from %s" % (etfforge.__file__, SRC), file=sys.stderr)
        return 2
    env = environment()
    report = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    report["workload"], report["environment"] = args.workload, env
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    _print_human(args.workload, report, env)
    print("report and spans written to %s" % path)
    metrics = {m: {"value": v, "unit": report["units"][m]} for m, v in report["metrics"].items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
