"""One run of one end-to-end workload, in a fresh process.

``run.py`` spawns this file once per run with the BLAS thread pools
pinned to one thread; the last line of stdout is the run's result as
JSON.  Run it directly only to debug a workload::

    python benchmarks/e2e/workloads.py --workload serve --seed 0

A run builds its inputs from ``--seed``, sets up, runs operations for
``--seconds`` (and at least ``min_ops`` of them), then checks its
outputs.  With ``--setup-only`` it stops once set up and reports only
``setup_s``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import itertools
import json
import math
import os
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro import NetShare, NetShareConfig, telemetry  # noqa: E402
from repro.datasets import FlowTrace, load_dataset  # noqa: E402
from repro.datasets.profiles import get_profile  # noqa: E402
from repro.metrics.fidelity import evaluate_fidelity  # noqa: E402
from repro.privacy.dpsgd import DpSgdConfig  # noqa: E402
from repro.serve import ServeClient, derive_client_seed  # noqa: E402

import tracer  # noqa: E402

RESULTS = HERE / "results"
#: Per-workload sizes and worker counts.  A run performs operations
#: until ``--seconds`` have passed and at least ``min_ops`` of them.
PARAMS = {
    "train": {
        "full": dict(records=5000, n_chunks=5, epochs_seed=3,
                     epochs_fine_tune=2, flows=500, dp_epochs=3,
                     public_records=1000, public_epochs=2, verify_n=4000,
                     min_ops=2, jobs=2),
        "smoke": dict(records=400, n_chunks=3, epochs_seed=1,
                      epochs_fine_tune=1, flows=60, dp_epochs=1,
                      public_records=200, public_epochs=1, verify_n=300,
                      min_ops=1, jobs=2),
    },
    "serve": {
        "full": dict(archive_records=1000, epochs_seed=1,
                     epochs_fine_tune=1, min_ops=64, jobs=2),
        "smoke": dict(archive_records=300, epochs_seed=1,
                      epochs_fine_tune=1, min_ops=12, jobs=2),
    },
}

#: serve traffic.  The mix is assumed, not measured: there is no
#: request log of a trace-generation service to draw it from, so it
#: stays fixed until a measured one is committed.  Fresh requests take
#: these sizes in exactly these shares and the two models half each
#: (shuffled by the seed), so every seed asks for the same work; a
#: fixed share of requests repeats one of the previous few (result-cache
#: reads).
SERVE_MODELS = ("ugr16", "caida")
SERVE_SIZES = (16, 50, 120, 400)
SERVE_SIZE_SHARES = (0.35, 0.30, 0.25, 0.10)
SERVE_REPEAT_SHARE = 0.25
SERVE_REPEAT_WINDOW = 8
#: Requests over which the mix is exact: 60 fresh (21/18/15/6 by size,
#: 30 per model) and 20 repeats.
SERVE_BLOCK = 80
SERVE_CLIENTS = 2
#: Served requests re-generated offline after the window; drawn from
#: the first ``min_ops`` requests, which every run sends.
SERVE_PARITY_SAMPLES = 16


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tree_usage(pid: int) -> Tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of a live process and its live
    children -- the serve daemon and its pool workers -- from /proc."""
    ticks = peak_kb = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            after = stat[stat.rindex(")") + 2:].split()
            if int(entry) != pid and int(after[1]) != pid:
                continue
            with open(f"/proc/{entry}/status") as handle:
                hwm = re.search(r"VmHWM:\s+(\d+)", handle.read())
        except OSError:  # the process exited while being read
            continue
        ticks += int(after[11]) + int(after[12])
        peak_kb = max(peak_kb, int(hwm.group(1)) if hwm else 0)
    return ticks / os.sysconf("SC_CLK_TCK"), peak_kb / 1024.0


def trace_digest(trace) -> str:
    digest = hashlib.sha256(type(trace).__name__.encode())
    for column in fields(trace):
        digest.update(column.name.encode())
        digest.update(np.ascontiguousarray(
            getattr(trace, column.name)).tobytes())
    return digest.hexdigest()


def combined_digest(digests: List[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def capture_window(trace, dataset: str):
    """Keep the records inside the profile's capture window.

    The generator lets long-lived flows run past the nominal window,
    so the time range -- and with it NetShare's chunk grid and the
    training work per chunk -- would hinge on one outlier flow per
    seed.  A real capture ends at its window, too.
    """
    times = (trace.start_time if isinstance(trace, FlowTrace)
             else trace.timestamp)
    limit = get_profile(dataset).trace_duration_ms
    return trace.subset(np.flatnonzero(times < limit))


def caida_input(flows: int, seed: int):
    """``flows`` CAIDA flows, whole.  Drawing flows rather than packets
    keeps the DP training work (steps scale with flows) steady across
    seeds; the elephant-flow tail otherwise swings it twofold."""
    pool = load_dataset("caida", n_records=120 * flows, seed=seed)
    groups = list(pool.group_by_five_tuple().values())
    pick = np.random.default_rng(seed).choice(len(groups), size=flows,
                                              replace=False)
    rows = np.sort(np.concatenate([groups[i] for i in pick]))
    return capture_window(pool.subset(rows), "caida")


@dataclass
class Window:
    """What the timed window measured: wall time and CPU of every
    operation that returned."""

    durations: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0


class Workload:
    """Set up, run ``op()`` for the window, verify."""

    #: Where a traced serve daemon dumps its spans.
    trace_file: Optional[Path] = None
    #: Datasets whose ``fidelity_jsd.<dataset>`` verify() reports.
    fidelity: Tuple[str, ...] = ("ugr16",)

    def __init__(self, seed: int, params: dict, workdir: Path):
        self.seed = seed
        self.p = params
        self.workdir = workdir
        self.checks: Dict[str, bool] = {}
        self.info: Dict[str, float] = {}

    def setup(self) -> None:
        """Build inputs and state."""

    def op(self, k: int) -> None:
        """One timed operation."""
        raise NotImplementedError

    def window(self, seconds: float) -> Window:
        """Sequential operations until ``seconds`` have passed and at
        least ``min_ops`` were attempted.  CPU per operation counts the
        pool workers, which every operation reaps before it returns."""
        window = Window()
        start = time.monotonic()
        while (window.attempted < self.p["min_ops"]
               or time.monotonic() - start < seconds):
            k = window.attempted
            window.attempted += 1
            began, cpu = time.monotonic(), cpu_seconds()
            try:
                self.op(k)
            except Exception as exc:  # counted, reported, run goes on
                window.failed += 1
                print(f"operation {k} failed: {exc!r}", file=sys.stderr)
                continue
            window.durations.append(time.monotonic() - began)
            window.cpu_s.append(cpu_seconds() - cpu)
        window.wall_s = time.monotonic() - start
        window.peak_rss_mb = peak_rss_mb()
        return window

    def verify(self) -> str:
        """Check outputs (into ``self.checks``); return the digest."""
        raise NotImplementedError

    def serve_stats(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        """Stop what setup() started."""

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


class Train(Workload):
    """Training-dominated: one operation fits a plain UGR16 model (the
    seed-chunk GAN, then the fine-tune fan-out), then a CAIDA model
    with DP-SGD fine-tuning of every chunk after public pre-training
    (the PCAP encoder and checksum post-processing as well)."""

    fidelity = ("ugr16", "caida")

    def setup(self) -> None:
        p = self.p
        self.inputs = {
            "ugr16": capture_window(load_dataset(
                "ugr16", n_records=p["records"], seed=self.seed), "ugr16"),
            "caida": caida_input(p["flows"], self.seed),
        }
        self.configs = {
            "ugr16": NetShareConfig(
                n_chunks=p["n_chunks"], epochs_seed=p["epochs_seed"],
                epochs_fine_tune=p["epochs_fine_tune"], anchor_count=128,
                jobs=p["jobs"], seed=self.seed),
            "caida": NetShareConfig(
                n_chunks=4, max_timesteps=12, dp=DpSgdConfig(1.0, 1.0),
                dp_public_dataset="caida_chicago_2015",
                dp_public_records=p["public_records"],
                dp_public_epochs=p["public_epochs"],
                epochs_seed=p["dp_epochs"], epochs_fine_tune=p["dp_epochs"],
                jobs=p["jobs"], seed=self.seed),
        }
        self.models: Dict[str, NetShare] = {}

    def op(self, k: int) -> None:
        self.models = {name: NetShare(config).fit(self.inputs[name])
                       for name, config in self.configs.items()}

    def verify(self) -> str:
        """The last operation's models: exact counts, the serial oracle
        (jobs=1 generates the same bits), fidelity and DP accounting."""
        if not self.models:
            self.check("trained", False)
            return ""
        epsilon = self.models["caida"].spent_epsilon
        self.check("finite_epsilon",
                   epsilon is not None and math.isfinite(epsilon))
        self.info["spent_epsilon"] = epsilon
        n, digests = self.p["verify_n"], []
        for name, model in self.models.items():
            synthetic = model.generate(n, seed=self.seed + 1)
            serial = model.generate(n, seed=self.seed + 1, jobs=1)
            self.check("exact_records", len(synthetic) == n)
            digests.append(trace_digest(synthetic))
            self.check("serial_oracle", digests[-1] == trace_digest(serial))
            self.info[f"fidelity_jsd.{name}"] = evaluate_fidelity(
                self.inputs[name], synthetic).mean_jsd
        return combined_digest(digests)


#: The serve workload queries fixed models: ``--seed`` picks what is
#: asked of them.  Models trained per seed would make the work per
#: request -- how many records each generated flow decodes to -- differ
#: from seed to seed.
ARCHIVE_SEED = 0


def train_archive(dataset: str, records: int, path: Path, **config):
    """Fit and save a model; returns the trace it was fitted on."""
    real = capture_window(load_dataset(dataset, n_records=records,
                                       seed=ARCHIVE_SEED), dataset)
    NetShare(NetShareConfig(seed=ARCHIVE_SEED, **config)).fit(
        real).save(path)
    return real


@dataclass(frozen=True)
class Request:
    client: str
    model: str
    n: int
    seed: int


def serve_schedule(seed: int) -> Iterator[Request]:
    """The serve request sequence for one seed, without end.

    Every block of ``SERVE_BLOCK`` requests holds the mix exactly, so
    a window that stops anywhere asks for nearly the same work on every
    seed.
    """
    rng = np.random.default_rng(seed)
    repeats = round(SERVE_REPEAT_SHARE * SERVE_BLOCK)
    fresh = SERVE_BLOCK - repeats
    counts = [round(share * fresh) for share in SERVE_SIZE_SHARES]
    recent: Deque[Request] = collections.deque(maxlen=SERVE_REPEAT_WINDOW)
    for block in itertools.count():
        # The first few requests of a run have nothing to repeat.
        first = SERVE_REPEAT_WINDOW if block == 0 else 0
        repeated = set(rng.choice(np.arange(first, SERVE_BLOCK),
                                  size=repeats, replace=False).tolist())
        sizes = iter(rng.permutation(np.repeat(SERVE_SIZES, counts)))
        models = iter(rng.permutation(np.arange(fresh) % len(SERVE_MODELS)))
        for j in range(SERVE_BLOCK):
            i = block * SERVE_BLOCK + j
            if j in repeated:
                back = int(rng.integers(1, SERVE_REPEAT_WINDOW + 1))
                request = recent[-back]
            else:
                request = Request(
                    client=f"client-{i % SERVE_CLIENTS}",
                    model=SERVE_MODELS[next(models)], n=int(next(sizes)),
                    seed=seed * 1_000_003 + i)
            recent.append(request)
            yield request


class Serve(Workload):
    """A closed loop of two clients against the serve daemon."""

    daemon: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        p = self.p
        self.archives = {name: self.workdir / f"{name}.npz"
                         for name in SERVE_MODELS}
        common = dict(n_chunks=2, epochs_seed=p["epochs_seed"],
                      epochs_fine_tune=p["epochs_fine_tune"])
        self.real = train_archive("ugr16", p["archive_records"],
                                  self.archives["ugr16"], **common)
        train_archive("caida", p["archive_records"], self.archives["caida"],
                      **common)
        self.start_daemon()
        # Every (model, size) pair, so the window starts with the
        # inference tapes of every request shape recorded.
        with ServeClient(*self.address, client_id="warmup") as client:
            pairs = itertools.product(SERVE_MODELS, SERVE_SIZES)
            for i, (model, n) in enumerate(pairs):
                client.generate(n, model, seed=i)

    def start_daemon(self) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if tracer.TRACER is not None:
            self.trace_file = self.workdir / "daemon.spans.json"
            command += ["--trace-out", str(self.trace_file)]
        command += ["serve", "--jobs", str(self.p["jobs"])]
        for name, path in self.archives.items():
            command += ["--model", f"{name}={path}"]
        self.daemon = subprocess.Popen(command, stdout=subprocess.PIPE,
                                       text=True)
        ready, _, _ = select.select([self.daemon.stdout], [], [], 60.0)
        line = self.daemon.stdout.readline() if ready else ""
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        self.address = (match.group(1), int(match.group(2)))

    def close(self) -> None:
        """SIGTERM: the daemon drains, and a traced one dumps spans."""
        if self.daemon is None:
            return
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.communicate()
        self.daemon = None

    def window(self, seconds: float) -> Window:
        """Closed-loop clients take the next request of the schedule
        until ``seconds`` have passed and ``min_ops`` were sent."""
        schedule = serve_schedule(self.seed)
        self.requests: List[Request] = []
        self.served: Dict[int, tuple] = {}
        lock = threading.Lock()

        def next_request() -> Optional[Tuple[int, Request]]:
            with lock:
                if (len(self.requests) >= self.p["min_ops"]
                        and time.monotonic() - start >= seconds):
                    return None
                self.requests.append(next(schedule))
                return len(self.requests) - 1, self.requests[-1]

        def client_loop() -> None:
            with ServeClient(*self.address) as client:
                while (item := next_request()) is not None:
                    i, request = item
                    client.client_id = request.client
                    began = time.monotonic()
                    try:
                        trace = client.generate(request.n, request.model,
                                                seed=request.seed)
                    except Exception as exc:  # counted as failed below
                        print(f"request {i} failed: {exc!r}",
                              file=sys.stderr)
                        continue
                    self.served[i] = (time.monotonic() - began, trace)

        window = Window()
        threads = [threading.Thread(target=client_loop)
                   for _ in range(SERVE_CLIENTS)]
        start = time.monotonic()
        cpu = cpu_seconds() + tree_usage(self.daemon.pid)[0]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.wall_s = time.monotonic() - start
        daemon_cpu, daemon_peak = tree_usage(self.daemon.pid)
        cpu = cpu_seconds() + daemon_cpu - cpu
        window.peak_rss_mb = max(peak_rss_mb(), daemon_peak)
        self.info["daemon_peak_rss_mb"] = daemon_peak
        window.attempted = len(self.requests)
        for i, request in enumerate(self.requests):
            served = self.served.get(i)
            if served is None:
                window.failed += 1
                continue
            window.durations.append(served[0])
            self.check("exact_records", len(served[1]) == request.n)
        # Requests run concurrently: CPU per request is the window's
        # CPU (clients, daemon and its workers) over the requests served.
        if window.durations:
            window.cpu_s = [cpu / len(window.durations)]
        self.info["p95_s"] = float(np.percentile(
            window.durations or [math.nan], 95))
        with ServeClient(*self.address) as client:
            self.final_metrics = client.metrics()
        return window

    def verify(self) -> str:
        head = [self.served.get(i) for i in range(self.p["min_ops"])]
        if any(served is None for served in head):
            self.check("served_parity", False)
            return ""
        offline = {name: NetShare.load(path)
                   for name, path in self.archives.items()}
        picks = np.random.default_rng(self.seed + 1).choice(
            len(head), size=min(SERVE_PARITY_SAMPLES, len(head)),
            replace=False)
        for i in sorted(picks):
            request = self.requests[i]
            expected = offline[request.model].generate(
                request.n, seed=derive_client_seed(request.client,
                                                   request.seed), jobs=1)
            self.check("served_parity",
                       trace_digest(expected) == trace_digest(head[i][1]))
        served_ugr16 = [served[1] for request, served
                        in zip(self.requests, head)
                        if request.model == "ugr16"]
        self.info["fidelity_jsd.ugr16"] = evaluate_fidelity(
            self.real, FlowTrace.concatenate(served_ugr16)).mean_jsd
        return combined_digest([trace_digest(served[1]) for served in head])

    def serve_stats(self) -> Dict[str, float]:
        return dict(self.final_metrics["serve"]["counters"])


WORKLOADS = {
    "train": Train,
    "serve": Serve,
}


def fidelity_limits(workload: str, scale: str) -> Dict[str, float]:
    """The recorded ceiling of each ``fidelity_jsd.<dataset>`` (see
    run.py --calibrate); none for smoke-scale models, which are barely
    trained."""
    path = HERE / "baseline.json"
    if scale != "full" or not path.exists():
        return {}
    entries = json.loads(path.read_text()).get("fidelity", {})
    return {name: entry["limit"]
            for name, entry in entries.get(workload, {}).items()}


def run(bench: Workload, workload: str, scale: str, seconds: float,
        spawned: float, span) -> dict:
    with span("bench:run"):
        with span("bench:setup"):
            bench.setup()
        setup_s = time.monotonic() - spawned
        with span("bench:window"):
            window = bench.window(seconds)
        with span("bench:verify"):
            try:
                digest = bench.verify()
            except Exception as exc:  # a check that crashed has failed
                print(f"verify failed: {exc!r}", file=sys.stderr)
                bench.check("verify", False)
                digest = ""
    limits = fidelity_limits(workload, scale)
    for dataset in bench.fidelity:
        # Missing when the outputs it is computed from are.
        name = f"fidelity_jsd.{dataset}"
        jsd = bench.info.setdefault(name, math.nan)
        bench.check("fidelity_within_bound", math.isfinite(jsd)
                    and jsd <= limits.get(name, math.inf))
    # NaN (printed as null) when every operation failed.
    durations = window.durations or [math.nan]
    cpu = window.cpu_s or [math.nan]
    return {
        "workload": workload,
        "seed": bench.seed,
        "correct": all(bench.checks.values()),
        "checks": bench.checks,
        "attempted": window.attempted,
        "failed": window.failed,
        "output_digest": digest,
        "metrics": {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(durations),
            "cpu_s_per_op": statistics.median(cpu),
            "peak_rss_mb": window.peak_rss_mb,
        },
        "info": {"ops": window.attempted, "window_s": window.wall_s,
                 "op_s": window.durations, **bench.info},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned", type=float, default=None,
                        help="monotonic clock reading taken just before "
                             "this process was spawned")
    args = parser.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned
    workdir = RESULTS / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = WORKLOADS[args.workload](
        args.seed, PARAMS[args.workload][args.scale], workdir)
    try:
        if args.setup_only:
            bench.setup()
            result = {"setup_s": time.monotonic() - spawned}
        elif not args.trace:
            result = run(bench, args.workload, args.scale, args.seconds,
                         spawned, lambda name: contextlib.nullcontext())
        else:
            traced = tracer.install()
            with telemetry.session():
                try:
                    result = run(bench, args.workload, args.scale,
                                 args.seconds, spawned, traced.span)
                finally:
                    bench.close()
                counters = telemetry.metrics().snapshot()["counters"]
            if bench.trace_file is not None:
                daemon = json.loads(bench.trace_file.read_text())
                traced.absorb(daemon, None)
                for name, value in daemon["telemetry"].items():
                    counters[name] = counters.get(name, 0) + value
            spans = RESULTS / f"{args.workload}.spans.json"
            traced.dump(spans)
            result["layers"] = tracer.layer_metrics(
                traced.spans, traced.counts, counters, bench.serve_stats())
            result["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
