"""CLI entry points: ``python -m repro.serve`` (daemon + client).

Subcommands::

    # Boot a daemon fronting one or more saved models:
    python -m repro.serve serve --model ugr16=models/ugr16.npz \\
        --port 7316 --jobs 4 --journal runs/

    # Fire one request at it and write the trace to CSV:
    python -m repro.serve request --port 7316 --model ugr16 \\
        --records 5000 --seed 1 --client-id alice --output trace.csv

    # Inspect service metrics / health:
    python -m repro.serve metrics --port 7316
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

from .. import telemetry
from ..datasets.io import write_flow_csv, write_packet_csv
from ..datasets.records import FlowTrace
from .cache import DEFAULT_CACHE_CAPACITY
from .client import ServeClient
from .daemon import ServeConfig, ServeDaemon, install_signal_handlers

__all__ = ["main"]


def _parse_models(pairs) -> Dict[str, str]:
    models: Dict[str, str] = {}
    for pair in pairs or []:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise SystemExit(
                f"--model expects NAME=PATH, got {pair!r}")
        models[name] = path
    return models


def _cmd_serve(args) -> int:
    config = ServeConfig(
        host=args.host, port=args.port,
        registry_capacity=args.registry_capacity,
        coalesce_window=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        retry_after=args.retry_after,
        jobs=args.jobs, hosts=args.hosts,
        cache_capacity=args.cache_capacity,
    )
    models = _parse_models(args.model)
    if not models:
        raise SystemExit("serve requires at least one --model NAME=PATH")

    def _run() -> int:
        daemon = ServeDaemon(models=models, config=config)
        host, port = daemon.start()
        stop = install_signal_handlers(daemon)
        print(f"repro.serve listening on {host}:{port} "
              f"(models: {', '.join(sorted(models))})", flush=True)
        stop.wait()
        print("repro.serve draining...", flush=True)
        daemon.shutdown(drain=True)
        print("repro.serve stopped", flush=True)
        return 0

    if args.journal:
        with telemetry.session(journal_dir=args.journal, label="serve"):
            return _run()
    return _run()


def _client(args) -> ServeClient:
    return ServeClient(args.host, args.port,
                       client_id=getattr(args, "client_id", "") or "")


def _cmd_request(args) -> int:
    with _client(args) as client:
        trace = client.generate(args.records, args.model, seed=args.seed)
        meta = client.last_response or {}
    if args.output:
        if isinstance(trace, FlowTrace):
            write_flow_csv(trace, args.output)
        else:
            write_packet_csv(trace, args.output)
        print(f"wrote {len(trace)} records to {args.output}")
    print(json.dumps({
        "records": len(trace),
        "model": meta.get("model"),
        "derived_seed": meta.get("derived_seed"),
        "model_generation": meta.get("model_generation"),
        "rounds": meta.get("rounds"),
    }, indent=2))
    return 0


def _cmd_metrics(args) -> int:
    with _client(args) as client:
        print(json.dumps(client.metrics(), indent=2, sort_keys=True))
    return 0


def _cmd_healthz(args) -> int:
    with _client(args) as client:
        response = client.healthz()
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("accepting") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="NetShare trace-generation service (daemon + client)")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the generation daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 binds an ephemeral port (printed on boot)")
    serve.add_argument("--model", action="append", metavar="NAME=PATH",
                       help="model name -> NetShare.save archive "
                            "(repeatable)")
    serve.add_argument("--registry-capacity", type=int, default=4)
    serve.add_argument("--window-ms", type=float, default=50.0,
                       help="request-coalescing window in milliseconds")
    serve.add_argument("--max-batch", type=int, default=16)
    serve.add_argument("--queue-limit", type=int, default=64)
    serve.add_argument("--retry-after", type=float, default=0.25)
    serve.add_argument("--jobs", type=int, default=None)
    serve.add_argument("--hosts", default=None, metavar="HOST:PORT,...",
                       help="remote worker hosts (default: REPRO_HOSTS "
                            "env var); selects the remote executor")
    serve.add_argument("--cache-capacity", type=int,
                       default=DEFAULT_CACHE_CAPACITY, metavar="N",
                       help="cross-request result cache size in "
                            "responses (0 disables)")
    serve.add_argument("--journal", default=None, metavar="DIR",
                       help="stream a telemetry run journal under DIR")
    serve.set_defaults(func=_cmd_serve)

    request = sub.add_parser("request", help="fire one generate request")
    request.add_argument("--host", default="127.0.0.1")
    request.add_argument("--port", type=int, required=True)
    request.add_argument("--model", required=True)
    request.add_argument("--records", type=int, default=1000)
    request.add_argument("--seed", type=int, default=0)
    request.add_argument("--client-id", default="")
    request.add_argument("--output", default=None, metavar="CSV")
    request.set_defaults(func=_cmd_request)

    metrics = sub.add_parser("metrics", help="print service metrics")
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, required=True)
    metrics.set_defaults(func=_cmd_metrics)

    healthz = sub.add_parser("healthz", help="exit 0 iff accepting")
    healthz.add_argument("--host", default="127.0.0.1")
    healthz.add_argument("--port", type=int, required=True)
    healthz.set_defaults(func=_cmd_healthz)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
