"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

* ``dataset``   — generate one of the six evaluation workloads to CSV;
* ``synthesize``— train NetShare (or a baseline) on a trace CSV and
  write a synthetic trace CSV; ``--jobs N`` fans chunk training out
  across the repro.runtime executor (a process pool fed through
  zero-copy shared memory) and ``--save-model`` persists the trained
  NetShare model to ``.npz``;
* ``generate``  — sample from a saved NetShare ``.npz`` model without
  retraining (``--jobs`` parallelizes per-chunk sampling, ``--hosts``
  or ``REPRO_HOSTS`` fans it out to remote worker hosts);
* ``evaluate``  — per-field JSD/EMD fidelity report between two CSVs;
* ``consistency`` — Appendix-B protocol-compliance checks on a CSV;
* ``anonymize`` — prefix-preserving or truncation IP anonymization.

Flow CSVs use the :mod:`repro.datasets.io` schema; PCAP-style traces
use the packet CSV schema (pass ``--kind pcap``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import NetShare, NetShareConfig, telemetry
from .baselines import make_baseline
from .datasets import (
    DATASET_PROFILES,
    anonymize_trace,
    get_profile,
    load_dataset,
    read_flow_csv,
    read_packet_csv,
    write_flow_csv,
    write_packet_csv,
    write_pcap,
)
from .metrics import consistency_report, evaluate_fidelity

__all__ = ["main", "build_parser"]


def _read_trace(path: str, kind: str):
    return read_flow_csv(path) if kind == "netflow" else read_packet_csv(path)


def _write_trace(trace, path: str, kind: str) -> None:
    if kind == "netflow":
        write_flow_csv(trace, path)
    else:
        write_packet_csv(trace, path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NetShare reproduction: synthetic IP header traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset", help="generate an evaluation workload")
    p.add_argument("name", choices=sorted(DATASET_PROFILES))
    p.add_argument("output", help="output CSV path")
    p.add_argument("--records", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synthesize", help="train a model and generate")
    p.add_argument("input", help="training trace CSV")
    p.add_argument("output", help="synthetic trace CSV")
    p.add_argument("--kind", choices=["netflow", "pcap"], default="netflow")
    p.add_argument("--model", default="NetShare",
                   help="NetShare or a baseline name (e.g. CTGAN)")
    p.add_argument("--records", type=int, default=0,
                   help="records to generate (default: same as input)")
    p.add_argument("--chunks", type=int, default=3)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel training workers (default: REPRO_JOBS "
                        "env var, then serial; 0 = one per CPU)")
    p.add_argument("--hosts", default=None, metavar="HOST:PORT,...",
                   help="remote worker hosts (default: REPRO_HOSTS env "
                        "var; NetShare only)")
    p.add_argument("--save-model", default=None, metavar="PATH",
                   help="persist the trained NetShare model to a .npz "
                        "archive (NetShare only)")
    p.add_argument("--journal", default=None, metavar="DIR",
                   help="stream a telemetry run journal (events.jsonl) "
                        "to DIR/<run-id>/; inspect it with "
                        "'python -m repro.telemetry report DIR'")

    p = sub.add_parser("generate",
                       help="sample from a saved NetShare model (.npz)")
    p.add_argument("model", help="model archive written by --save-model")
    p.add_argument("output", help="synthetic trace CSV")
    p.add_argument("--records", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel sampling workers (default: the saved "
                        "model's setting, then REPRO_JOBS)")
    p.add_argument("--hosts", default=None, metavar="HOST:PORT,...",
                   help="remote worker hosts (default: REPRO_HOSTS env "
                        "var); output is bit-identical to --jobs 1")
    p.add_argument("--journal", default=None, metavar="DIR",
                   help="stream a telemetry run journal to DIR/<run-id>/")

    p = sub.add_parser("evaluate", help="fidelity report real vs synthetic")
    p.add_argument("real", help="real trace CSV")
    p.add_argument("synthetic", help="synthetic trace CSV")
    p.add_argument("--kind", choices=["netflow", "pcap"], default="netflow")

    p = sub.add_parser("consistency", help="Appendix-B compliance checks")
    p.add_argument("trace", help="trace CSV")
    p.add_argument("--kind", choices=["netflow", "pcap"], default="netflow")

    p = sub.add_parser("export-pcap",
                       help="convert a packet CSV to a tcpdump-compatible "
                            ".pcap capture")
    p.add_argument("input", help="packet trace CSV")
    p.add_argument("output", help="output .pcap path")
    p.add_argument("--snaplen", type=int, default=256)

    p = sub.add_parser("anonymize", help="anonymize a trace's IPs")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--kind", choices=["netflow", "pcap"], default="netflow")
    p.add_argument("--method", choices=["prefix", "truncate"],
                   default="prefix")
    p.add_argument("--keep-bits", type=int, default=24)
    p.add_argument("--key", default="repro-anon-key")
    return parser


def _cmd_dataset(args) -> int:
    trace = load_dataset(args.name, n_records=args.records, seed=args.seed)
    kind = get_profile(args.name).kind
    _write_trace(trace, args.output, kind)
    print(f"wrote {len(trace)} {kind} records to {args.output}")
    return 0


def _cmd_synthesize(args) -> int:
    if args.journal:
        with telemetry.session(journal_dir=args.journal,
                               label=f"synthesize:{args.model}") as journal:
            code = _run_synthesize(args)
            print(f"journal: {journal.directory}")
        return code
    return _run_synthesize(args)


def _run_synthesize(args) -> int:
    trace = _read_trace(args.input, args.kind)
    n_out = args.records or len(trace)
    if args.model == "NetShare":
        model = NetShare(NetShareConfig(
            n_chunks=args.chunks, epochs_seed=args.epochs,
            epochs_fine_tune=max(3, args.epochs // 3), seed=args.seed,
            jobs=args.jobs, hosts=args.hosts,
        ))
    else:
        # Baselines still reach worker hosts through REPRO_HOSTS.
        for flag, value in (("--save-model", args.save_model),
                            ("--hosts", args.hosts)):
            if value:
                print(f"{flag} only supports the NetShare model")
                return 2
        model = make_baseline(args.model, epochs=args.epochs,
                              seed=args.seed, jobs=args.jobs)
    print(f"training {args.model} on {len(trace)} records...")
    model.fit(trace)
    if isinstance(model, NetShare):
        print(f"  backend={model.backend} "
              f"wall={model.wall_seconds:.1f}s cpu={model.cpu_seconds:.1f}s")
        if args.save_model:
            model.save(args.save_model)
            print(f"saved model to {args.save_model}")
    synthetic = model.generate(n_out, seed=args.seed + 1)
    _write_trace(synthetic, args.output, args.kind)
    print(f"wrote {len(synthetic)} synthetic records to {args.output}")
    return 0


def _cmd_generate(args) -> int:
    if args.journal:
        with telemetry.session(journal_dir=args.journal,
                               label="generate") as journal:
            code = _run_generate(args)
            print(f"journal: {journal.directory}")
        return code
    return _run_generate(args)


def _run_generate(args) -> int:
    model = NetShare.load(args.model)
    synthetic = model.generate(args.records, seed=args.seed,
                               jobs=args.jobs, hosts=args.hosts)
    _write_trace(synthetic, args.output, model.kind)
    print(f"wrote {len(synthetic)} synthetic {model.kind} records "
          f"to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    real = _read_trace(args.real, args.kind)
    synthetic = _read_trace(args.synthetic, args.kind)
    print(evaluate_fidelity(real, synthetic).summary())
    return 0


def _cmd_consistency(args) -> int:
    trace = _read_trace(args.trace, args.kind)
    for test, value in consistency_report(trace).items():
        print(f"{test}: {value:.2%}")
    return 0


def _cmd_export_pcap(args) -> int:
    trace = read_packet_csv(args.input)
    write_pcap(trace, args.output, snaplen=args.snaplen)
    print(f"wrote {len(trace)} packets to {args.output} (libpcap, raw IPv4)")
    return 0


def _cmd_anonymize(args) -> int:
    trace = _read_trace(args.input, args.kind)
    out = anonymize_trace(trace, method=args.method,
                          keep_bits=args.keep_bits,
                          key=args.key.encode())
    _write_trace(out, args.output, args.kind)
    print(f"wrote anonymized trace to {args.output}")
    return 0


_COMMANDS = {
    "dataset": _cmd_dataset,
    "synthesize": _cmd_synthesize,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "consistency": _cmd_consistency,
    "export-pcap": _cmd_export_pcap,
    "anonymize": _cmd_anonymize,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
