"""End-to-end NetShare benchmark: every workload, one command.

    python3 benchmarks/e2e/run.py                     # both workloads
    python3 benchmarks/e2e/run.py --workload serve --seed 3
    python3 benchmarks/e2e/run.py --repeats 5         # median, q1, q3, n
    python3 benchmarks/e2e/run.py --trace 1           # per-layer metrics
    python3 benchmarks/e2e/run.py --calibrate         # baseline and bounds

Each run is a fresh ``workloads.py`` process with the BLAS pools
pinned to one thread (unpinned, two 2-thread pools in two workers
fight over two cores and no number repeats).  The last line of stdout
is one JSON object; with one workload and one repeat it has exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only if every run finished and every check passed.

``--trace 1`` runs each workload untraced and then traced, each for
half of ``--seconds``: the metrics are the ``per_layer`` ones from the
traced run plus ``trace_overhead.<metric>`` = traced / untraced for
every end-to-end metric.  Spans land in
``benchmarks/e2e/results/<workload>.spans.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = HERE / "baseline.json"
#: Wall budget of one invocation for one run (which must end in 180 s).
RUN_BUDGET_S = 170.0
#: ``setup_s`` is the median spawn-to-ready time of several processes:
#: set-up-only ones, then the measured one.  A run sets up at least
#: SETUP_MIN times, and more while set-up has taken under
#: SETUP_SECONDS, up to SETUP_MAX times, so a quick set-up gets a
#: median over more samples.
SETUP_MIN = 3
SETUP_MAX = 9
SETUP_SECONDS = 6.0
#: A metric's regression bound is BOUND_FACTOR times the largest
#: relative IQR calibration measures for it, and at least MIN_BOUND, so
#: the run-to-run spread stays within a third of the bound.  A bound
#: over MAX_BOUND, the most the benchmark format allows, calls for a
#: longer workload, not a wider bound.
MIN_BOUND = 0.05
MAX_BOUND = 0.25
BOUND_FACTOR = 3.0
#: fidelity_jsd may exceed the baseline median by this many IQRs
#: before the correctness check fails (JSD is seed-dependent, and the
#: check must hold for seeds the baseline never saw).
FIDELITY_IQRS = 4.0


class RunFailed(RuntimeError):
    """A workload process crashed, timed out or printed no result."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def write_spec(spec: dict) -> None:
    """Rewrite ``BENCHMARK.json`` with one list entry per line."""
    fields = []
    for key, value in spec.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            entries = ",\n".join(f"    {json.dumps(v)}" for v in value)
            fields.append(f"  {json.dumps(key)}: [\n{entries}\n  ]")
        else:
            fields.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    SPEC_PATH.write_text("{\n" + ",\n".join(fields) + "\n}\n")


def spawn(workload: str, seed: int, seconds: float, trace: bool,
          scale: str, timeout: float, setup_only: bool = False) -> dict:
    """One workload process; returns the result it prints."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if trace:
        env["REPRO_MEASURE_DISPATCH"] = "1"
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--scale", scale]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned", repr(time.monotonic())]
    # A session of its own, so a timeout kills the serve daemon and the
    # pool workers along with the workload process.
    process = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RunFailed(f"{workload} seed {seed} timed out") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RunFailed(f"{workload} seed {seed} exited "
                        f"{process.returncode}")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             scale: str) -> dict:
    """One run: set-up-only processes and the measured process; traced,
    an untraced and a traced process with half the window each."""
    deadline = time.monotonic() + RUN_BUDGET_S

    def left() -> float:
        return deadline - time.monotonic()

    if trace:
        result = spawn(workload, seed, seconds / 2, False, scale, left())
        traced = spawn(workload, seed, seconds / 2, True, scale, left())
        traced_e2e = traced["metrics"]
        traced["metrics"] = traced.pop("layers")
        for name, untraced in result["metrics"].items():
            traced["metrics"][f"trace_overhead.{name}"] = (
                traced_e2e[name] / untraced if untraced else 0.0)
        traced["correct"] = result["correct"] and traced["correct"]
        traced["attempted"] += result["attempted"]
        traced["failed"] += result["failed"]
        return traced
    setups: List[float] = []
    while scale == "full" and (
            len(setups) < SETUP_MIN - 1
            or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX - 1)):
        setups.append(spawn(workload, seed, seconds, False, scale, left(),
                            setup_only=True)["setup_s"])
    result = spawn(workload, seed, seconds, False, scale, left())
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["info"]["setup_runs_s"] = setups
    return result


def quartiles(values: List[float]) -> Dict[str, float]:
    """median, q1, q3 (``statistics.quantiles``, exclusive) and n."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def units(spec: dict, trace: bool) -> Dict[str, str]:
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def print_run(result: dict, unit_of: Dict[str, str]) -> None:
    checks = ", ".join(f"{name}={'ok' if ok else 'FAILED'}"
                       for name, ok in result["checks"].items())
    print(f"== {result['workload']} seed {result['seed']}: "
          f"{result['attempted'] - result['failed']}/{result['attempted']}"
          f" ok; {checks}")
    for name, value in result["metrics"].items():
        print(f"   {name:<40} {value:>14.6g} {unit_of.get(name, '')}")
    for name, value in result["info"].items():
        if isinstance(value, float):
            print(f"   ({name}: {value:.6g})")
    print(f"   output_digest {result['output_digest']}")


def result_line(result: dict, unit_of: Dict[str, str]) -> dict:
    """The contract line; a metric no operation measured is null."""
    def value(x: float):
        return x if math.isfinite(x) else None

    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value(result["metrics"][name]),
                           "unit": unit_of[name]}
                    for name in unit_of},
    }


def run_many(workloads: List[str], seeds: List[int], seconds: float,
             trace: bool, scale: str, unit_of: Dict[str, str],
             out=None) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {w: [] for w in workloads}
    for workload in workloads:
        for seed in seeds:
            result = run_once(workload, seed, seconds, trace, scale)
            print_run(result, unit_of)
            sys.stdout.flush()
            runs[workload].append(result)
            if out is not None:
                out.write(json.dumps(result) + "\n")
                out.flush()
    return runs


def summarize(runs: Dict[str, List[dict]]) -> Dict[str, Dict[str, dict]]:
    return {workload: {name: quartiles([r["metrics"][name] for r in rs])
                       for name in rs[0]["metrics"]}
            for workload, rs in runs.items()}


def print_summary(summary: Dict[str, Dict[str, dict]],
                  unit_of: Dict[str, str]) -> None:
    for workload, metrics in summary.items():
        print(f"== {workload} (median [q1, q3], n)")
        for name, q in metrics.items():
            print(f"   {name:<40} {q['median']:>14.6g} "
                  f"[{q['q1']:.6g}, {q['q3']:.6g}] n={q['n']} "
                  f"{unit_of.get(name, '')}")


def relative_iqr(q: dict) -> float:
    return (q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0


def calibrate(spec: dict, workloads: List[str], seeds: List[int],
              seconds: float) -> int:
    """Two sets of runs over the same seeds: baseline, bounds, digests.

    Writes ``baseline.json`` (per-set median/q1/q3/n of every
    (metric, workload), fidelity limits, output digests) and the
    ``bound`` of every end-to-end metric in ``BENCHMARK.json``.  Exits
    1 when a metric other than ``setup_s`` spreads over a third of the
    largest bound, the sets disagree, or a check fails.
    """
    unit_of = units(spec, False)
    sets = []
    for index in range(2):
        print(f"# calibration set {index + 1}/2")
        sets.append(run_many(workloads, seeds, seconds, False, "full",
                             unit_of))
    summaries = [summarize(runs) for runs in sets]
    spread = {name: 0.0 for name in unit_of}
    status = 0
    for workload in workloads:
        for name in unit_of:
            for summary in summaries:
                rel = relative_iqr(summary[workload][name])
                spread[name] = max(spread[name], rel)
                if name != "setup_s" and BOUND_FACTOR * rel > MAX_BOUND:
                    print(f"! {workload} {name} spreads {rel:.1%}, over "
                          f"a third of {MAX_BOUND:.0%}")
                    status = 1
        digests = [[r["output_digest"] for r in runs[workload]]
                   for runs in sets]
        if digests[0] != digests[1]:
            print(f"! {workload}: output digests differ between sets")
            status = 1
        if not all(r["correct"] for runs in sets for r in runs[workload]):
            status = 1
    # The format allows no bound past MAX_BOUND: a metric flagged above
    # gets that one, and its spread is then over a third of its bound.
    bounds = {name: min(MAX_BOUND, max(
                  MIN_BOUND, math.ceil(BOUND_FACTOR * rel * 100) / 100))
              for name, rel in spread.items()}
    # The format also gives set-up time the largest bound.
    bounds["setup_s"] = max(bounds.values())
    for entry in spec["end_to_end"]:
        entry["bound"] = bounds[entry["name"]]
    fidelity: Dict[str, Dict[str, dict]] = {}
    for workload in workloads:
        runs = sets[0][workload]
        for name in (n for n in runs[0]["info"]
                     if n.startswith("fidelity_jsd.")):
            q = quartiles([r["info"][name] for r in runs])
            fidelity.setdefault(workload, {})[name] = {
                **q, "limit": q["median"] + FIDELITY_IQRS
                * max(q["q3"] - q["q1"], 0.02)}
    for workload in workloads:
        for name in unit_of:
            first = summaries[0][workload][name]["median"]
            second = summaries[1][workload][name]["median"]
            change = (second - first) / first if first else 0.0
            if abs(change) > bounds[name]:
                print(f"! {workload} {name}: sets disagree by "
                      f"{change:+.1%} (bound {bounds[name]:.0%})")
                status = 1
    baseline = {
        "env": {"nproc": os.cpu_count(), "jobs": 2, "backend": "default",
                "blas_threads": 1, "seconds": seconds, "seeds": seeds,
                "python": sys.version.split()[0]},
        "sets": summaries,
        "fidelity": fidelity,
        "output_digests": {w: [r["output_digest"] for r in sets[0][w]]
                           for w in workloads},
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=1) + "\n")
    write_spec(spec)
    print_summary(summaries[0], unit_of)
    print("bounds:", json.dumps(bounds))
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end NetShare benchmark")
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--out", type=Path, default=None,
                        help="append every run's full result (JSONL)")
    parser.add_argument("--calibrate", action="store_true",
                        help="two sets of max(5, --repeats) runs of every "
                             "workload: write baseline.json and the bounds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else names
    seeds = list(range(args.seed, args.seed + args.repeats))
    if args.calibrate:
        seeds = list(range(args.seed, args.seed + max(5, args.repeats)))
        return calibrate(spec, names, seeds, args.seconds)
    unit_of = units(spec, bool(args.trace))
    out = open(args.out, "a") if args.out else None
    try:
        runs = run_many(workloads, seeds, args.seconds, bool(args.trace),
                        args.scale, unit_of, out)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not None:
            out.close()
    results = [r for rs in runs.values() for r in rs]
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        print(json.dumps(result_line(results[0], unit_of)))
    else:
        summary = summarize(runs)
        if len(seeds) > 1:
            print_summary(summary, unit_of)
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {w: {name: {"value": q["median"],
                                   "unit": unit_of[name], **q}
                            for name, q in metrics.items()}
                        for w, metrics in summary.items()},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
