"""Layered benchmark for pafmsm.

    python3 bench/run.py --workload registry_1e5 --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One process, one compute thread, BLAS pinned to one thread.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A failed output
check prints ``"correct": false`` and exits 1.  See bench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse
import ctypes
import gc
import importlib
import json
import mmap
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402  (after the pinning above)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_ROUNDS = 3
MIN_PASSES = 3  # pass_s is a median: at least three timed passes per run
MIN_TRACE_ROUNDS = 2
CAL_LOOPS = 150_000
CAL_REF_S = 0.05  # reference duration of calibration_s
_CAL_IN, _CAL_OUT = np.ones(4_000_000), np.ones(4_000_000)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import pafmsm from this checkout's src/, never from elsewhere.
    Returns the package and the import time in reference seconds."""
    src = ROOT / "src"
    if not (src / "pafmsm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src / 'pafmsm'}; run from a checkout")
    sys.path.insert(0, str(src))

    def load():
        for name in ("cli", "cohort", "continuous", "cox", "curves", "discrete", "paf", "simulate"):
            importlib.import_module(f"pafmsm.{name}")
        return sys.modules["pafmsm"]

    clock = ReferenceClock()
    pkg = clock.step(load)
    if Path(pkg.__file__).resolve().parent != (src / "pafmsm").resolve():
        raise SystemExit(f"bench: imported pafmsm from {pkg.__file__}, not from {src}")
    return pkg, sum(clock.ref)


def _thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def calibration_s():
    """Wall time of a fixed interpreter loop, a fixed memory-bound numpy
    step and first touches of fresh pages: a sample of how fast this
    machine runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i % 7
    # 32 MB in and out, into a buffer kept for the purpose: a fresh array
    # of this size would raise glibc's mmap threshold for the program
    np.cumsum(_CAL_IN, out=_CAL_OUT)
    with mmap.mmap(-1, 32 << 20) as fresh:  # page faults, outside malloc
        pages = np.frombuffer(fresh, dtype=np.uint8)
        pages[::mmap.PAGESIZE] = 1
        del pages
    return time.perf_counter() - start


class ReferenceClock:
    """Times steps in wall seconds and in reference seconds.

    A step's reference time is its wall time scaled by CAL_REF_S over the
    mean of the calibration times measured just before and just after it,
    which takes out most of the drift in machine speed that a shared host
    shows from one minute to the next.
    """

    def __init__(self):
        self.calibrations = [calibration_s()]
        self.wall = []
        self.ref = []

    def step(self, fn):
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.calibrations.append(calibration_s())
        self.wall.append(wall)
        self.ref.append(wall * 2 * CAL_REF_S / sum(self.calibrations[-2:]))
        return result


def run_pass(ops, clock=None):
    """Run one pass; returns (results by label, failures as (label, message))."""
    results, failures = {}, []
    for label, op in ops:
        try:
            result = op() if clock is None else clock.step(op)
        except Exception as exc:  # an operation that raises counts as failed
            failures.append((label, f"{type(exc).__name__}: {exc}"))
            continue
        results[label] = result
        if getattr(result, "failed", False):
            failures.append((label, f"exit {result.code}: {result.stderr.strip()}"))
    return results, failures


def _capture_wrapper(store, current):
    def make(name, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            store[(current[0], name)].append(result)
            return result
        return captured
    return make


def _release_free_heap():
    """Hand free heap pages back to the system, so the memory pass starts
    from the resident size of the data set up, not of past garbage."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc


def memory_and_checks(workload, inputs):
    """In a forked child: one untimed pass whose growth of the resident
    high-water mark is the pass's peak memory, then the output checks.

    Forking gives the pass the parent's set-up state without counting it.
    Returns the child's report as a dict.
    """
    _release_free_heap()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            report = _child(workload, inputs)
            code = 0
        except BaseException:  # the child reports everything and must reach os._exit
            report = {"error": traceback.format_exc()}
        finally:
            with os.fdopen(write_fd, "w") as fh:
                json.dump(report, fh)
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    report = json.loads(text) if text else {"error": f"memory pass died (status {status})"}
    return report


def _child(workload, inputs):
    pkg = workload.pkg
    targets = {name: owner for name, owner in workloads.layer_targets(pkg).items()
               if name in workload.capture}
    store, current = defaultdict(list), [None]
    ops = [(label, _labelled(label, op, current)) for label, op in workload.operations(inputs)]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with spans.Hooks("pafmsm", targets, _capture_wrapper(store, current)):
        results, failures = run_pass(ops)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"peak_mem_mb": (after - before) * 1024 / 1e6, "attempted": len(ops),
              "failed": len(failures), "failures": failures}
    if failures:
        report["correct"] = False
        report["reason"] = "; ".join(f"{label}: {message}" for label, message in failures)
        return report
    try:
        report["held"] = workload.check(inputs, results, store)
        report["correct"] = True
    except checks.CheckFailed as exc:
        report["correct"] = False
        report["reason"] = str(exc)
    return report


def _labelled(label, op, current):
    def run():
        current[0] = label
        return op()
    return run


def timed_passes(workload, inputs, seconds, recorder=None):
    """Passes with tracing off until ``seconds`` have elapsed (at least
    MIN_PASSES), each timed by a ReferenceClock.  With a recorder instead,
    alternate plain untraced and traced passes (at least MIN_TRACE_ROUNDS
    rounds), in wall seconds, with no calibration inside the spans.
    Returns (untraced, traced, attempted, failures): pass times as
    (wall, reference) pairs, or wall times when tracing."""
    untraced, traced, attempted, failures = [], [], 0, []
    start = time.perf_counter()
    while True:
        ops = workload.operations(inputs)
        if recorder is None:
            clock = ReferenceClock()
            _, failed = run_pass(ops, clock)
            untraced.append((sum(clock.wall), sum(clock.ref)))
        else:
            t0 = time.perf_counter()
            _, failed = run_pass(ops)
            untraced.append(time.perf_counter() - t0)
        attempted += len(ops)
        failures += failed
        if recorder is not None:
            ops = workload.operations(inputs)
            targets = workloads.layer_targets(workload.pkg)
            t0 = time.perf_counter()
            wrap = lambda name, fn: recorder.wrap(workloads.span_name(name), fn)  # noqa: E731
            with spans.Hooks("pafmsm", targets, wrap):
                recorder.begin_pass("pass")
                _, failed = run_pass(ops)
                recorder.end_pass()
            traced.append(time.perf_counter() - t0)
            attempted += len(ops)
            failures += failed
        enough = MIN_TRACE_ROUNDS if recorder is not None else MIN_PASSES
        if len(untraced) >= enough and time.perf_counter() - start >= seconds:
            return untraced, traced, attempted, failures


def _per_layer(spec_names, recorder, untraced):
    """Mean over traced passes of each layer's self time and counts."""
    self_times = recorder.self_times()
    passes = sorted(self_times)
    values = {}
    for name in spec_names:
        if name.startswith("trace."):
            continue
        if name.endswith("_s"):
            values[name] = statistics.fmean(self_times[p].get(name[:-2], 0.0) for p in passes)
        else:
            values[name] = statistics.fmean(recorder.counts[p].get(name, 0.0) for p in passes)
    durations = recorder.pass_durations()
    traced_mean = statistics.fmean(durations[p] for p in passes)
    values["trace.pass_s"] = traced_mean
    values["trace.overhead_s"] = traced_mean - statistics.fmean(untraced)
    values["trace.bench_self_s"] = statistics.fmean(self_times[p]["pass"] for p in passes)
    values["trace.spans"] = len(recorder.spans) / len(passes)
    total = statistics.fmean(sum(self_times[p].values()) for p in passes)
    if abs(total - traced_mean) > 1e-9 * max(1.0, traced_mean):
        raise RuntimeError(f"self times add to {total} s, traced pass took {traced_mean} s")
    return values


def main(argv=None):
    args = _parse_args(argv)
    pkg, import_s = _import_package()

    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    threads = _thread_count()
    if threads not in (None, 1):
        raise SystemExit(f"bench: {threads} threads after import; expected one")

    (BENCH_DIR / "results").mkdir(exist_ok=True)
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](pkg, workdir)

        def setup_round():
            tiny = workload.setup(args.seed, tiny=True)
            run_pass(workload.operations(tiny))  # warm-up: every code path once
            return workload.setup(args.seed)

        setup_clock = ReferenceClock()
        for _ in range(SETUP_ROUNDS):
            inputs = None  # every round starts without the last round's data
            inputs = setup_clock.step(setup_round)
        setup_s = import_s + statistics.median(setup_clock.ref)

        report = memory_and_checks(workload, inputs)
        if "error" in report:
            sys.stderr.write(report["error"] + "\n")
            return 2
        recorder = spans.SpanRecorder(workloads.COUNTERS) if args.trace else None
        untraced, traced, attempted, failures = timed_passes(
            workload, inputs, args.seconds, recorder)
        attempted += report["attempted"]
        failures += [tuple(f) for f in report["failures"]]

        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values = _per_layer(names, recorder, untraced)
        else:
            values = {"setup_s": setup_s, "pass_s": statistics.median(r for _, r in untraced),
                      "peak_mem_mb": report["peak_mem_mb"]}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units
                   if name in values}
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "import_ref_s": import_s, "setup_rounds_wall_s": setup_clock.wall,
                  "setup_rounds_ref_s": setup_clock.ref,
                  "pass_times_s": untraced,
                  "traced_pass_times_s": traced, "checks": report.get("held", []),
                  "failures": failures, "metrics": metrics}
        stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
        if recorder is not None:
            _dump(BENCH_DIR / "results" / f"trace_{stem}.json",
                  {"spans": recorder.to_json_rows(),
                   "self_times": {str(p): dict(v) for p, v in recorder.self_times().items()},
                   "counts": {str(p): dict(v) for p, v in recorder.counts.items()}})
        _dump(BENCH_DIR / "results" / f"result_{stem}.json", detail)
        for label, message in failures:
            sys.stderr.write(f"bench: operation {label!r} failed: {message}\n")
        if not report["correct"]:
            sys.stderr.write(f"bench: output check failed: {report['reason']}\n")
        print(json.dumps({"correct": report["correct"], "attempted": attempted,
                          "failed": len(failures), "metrics": metrics}))
        return 0 if report["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
