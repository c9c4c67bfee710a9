"""oscbath benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run reports the end-to-end metrics: the median warm
pass (`wall_s`), the set-up time of a cold process (`setup_s`), the peak
RSS and the requested amplitude samples per second.  Both timings pool
this process and two worker processes it starts one after another, each
of which sets up cold and then measures a third of --seconds.  With
--trace 1 it alternates untraced and traced passes in this process and
reports the per-layer metrics of `tracer.py`.  Every pass is checked (see
`workloads.py`); the last stdout line is the JSON result.  See README.md
in this directory for the workloads and metrics.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before oscbath is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# Pass times differ between processes as well as over time, so the timings
# pool this many processes; setup_s is the median of their cold starts.
PROCESSES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "rss_peak_mb": "MB",
                    "mode_samples_per_s": "1/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="warm pass time to measure; each process runs at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-size inputs (N / 10); needs --reference-dir")
    parser.add_argument("--reference-dir", type=Path,
                        help="reference outputs (default: perfbench/reference)")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)  # set up, measure, print JSON, exit
    return parser.parse_args(argv)


def _keep_going(times: list[float], seconds: float, per_round: int = 1) -> bool:
    """No round ran yet, or another fits in the budget, judged by the
    median pass so far."""
    return (len(times) < per_round
            or sum(times) + per_round * statistics.median(times) <= seconds)


def _warm_passes(workload, timed_pass, seconds: float) -> list[float]:
    times: list[float] = []
    while _keep_going(times, seconds):
        times.append(timed_pass(workload.run_pass))
    return times


def _run_worker(args, seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--worker"]
    if args.tiny:
        cmd.append("--tiny")
    if args.reference_dir is not None:
        cmd += ["--reference-dir", str(args.reference_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(args, workload, timed_pass, setup, tally):
    from workloads import Tally
    share = args.seconds / PROCESSES
    times = _warm_passes(workload, timed_pass, share)
    setups = [setup]
    for _ in range(PROCESSES - 1):
        worker = _run_worker(args, share)
        setups.append(worker["setup_s"])
        times += worker["times"]
        tally.merge(Tally(worker["attempted"], worker["failed"], worker["problems"]))
    wall = statistics.median(times)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mode_samples_per_s": workload.mode_samples / wall,
    }
    notes = [f"wall_s is the median of {len(times)} warm passes in {PROCESSES} processes "
             f"(min {min(times):.6g} s, max {max(times):.6g} s)",
             "setup_s is the median of these cold starts: "
             + ", ".join(f"{s:.6g}" for s in setups),
             f"mode samples per pass: {workload.mode_samples}"]
    return metrics, END_TO_END_UNITS, notes


def _per_layer(args, workload, timed_pass, reference, tally, out_dir):
    import tracer
    trace = tracer.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    while _keep_going(untraced + traced, args.seconds, per_round=2):
        untraced.append(timed_pass(workload.run_pass))
        traced.append(timed_pass(lambda work: trace.traced_pass(
            lambda: workload.run_pass(work))))
    base = statistics.median(untraced)
    expected = set(reference.get("__spans__", {}).get("names", []))
    missing = sorted(expected - trace.observed())
    metrics = {
        **trace.layer_metrics(),
        "trace.overhead_frac": (statistics.median(traced) - base) / base,
        "trace.untraced_s": base,
        "trace.layers_missing": float(len(missing)),
        "failed_frac": tally.failed / tally.attempted,
    }
    units = {**tracer.units(), "trace.overhead_frac": "1", "trace.untraced_s": "s",
             "trace.layers_missing": "count", "failed_frac": "1"}
    notes = [f"layer not observed: {name} (it recorded spans when the reference was made)"
             for name in missing]
    notes.append(f"per-layer values are medians over {len(traced)} traced passes, "
                 f"alternated with {len(untraced)} untraced ones")
    trace.save(out_dir / f"spans_{args.workload}.npz")
    return metrics, units, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.tiny and args.reference_dir is None:
        print("perfbench: --tiny needs --reference-dir", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workloads.OUT_DIR))
    try:
        cold = workload.run_pass(work)
        setup = time.perf_counter() - T0
        reference = workloads.load_reference(
            args.reference_dir or workloads.REFERENCE_DIR, args.workload)
        tally = workloads.check_pass(cold, work, reference, workload.tolerance)

        def timed_pass(run) -> float:
            """Time run(work), then check its outputs outside the timing."""
            start = time.perf_counter()
            results = run(work)
            seconds = time.perf_counter() - start
            tally.merge(workloads.check_pass(results, work, reference, workload.tolerance))
            return seconds

        if args.worker:
            times = _warm_passes(workload, timed_pass, args.seconds)
            print(json.dumps({"setup_s": setup, "times": times, "attempted": tally.attempted,
                              "failed": tally.failed, "problems": tally.problems}))
            return 0
        if args.trace == 0:
            metrics, units, notes = _end_to_end(args, workload, timed_pass, setup, tally)
        else:
            metrics, units, notes = _per_layer(args, workload, timed_pass, reference,
                                               tally, workloads.OUT_DIR)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import machine
    record = machine.record(workloads.ROOT, args.seed)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(workloads.OUT_DIR / f"result_{args.workload}_trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "machine": record, "notes": notes,
                   "problems": tally.problems, **result}, fh, indent=2)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(record))
    for note in notes:
        print(note)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} 1 "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
