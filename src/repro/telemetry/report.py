"""Render a run summary from a journal (``report`` subcommand logic).

Consumes the event stream written by :class:`~repro.telemetry.journal.
RunJournal` and produces either a JSON summary dict or a human text
rendering: per-chunk wall/cpu, the slowest spans in the spliced trace
tree, histogram percentiles from the final metrics snapshot, the DP ε
trajectory, generate-round accept/reject counts, worker retries, and
shm arena traffic.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .journal import load_journals
from .metrics import metrics_snapshot

__all__ = ["summarize", "render_text", "report",
           "diff_summaries", "render_diff_text", "diff_report"]


def _walk_spans(node: Dict[str, Any], path: str = ""
                ) -> Iterator[Tuple[str, Dict[str, Any]]]:
    here = f"{path}/{node.get('name', '?')}" if path else node.get("name", "?")
    yield here, node
    for child in node.get("children", ()):
        yield from _walk_spans(child, here)


def summarize(meta: Dict[str, Any], events: List[Dict[str, Any]],
              top_spans: int = 10) -> Dict[str, Any]:
    """Fold a journal's event stream into one summary dict."""
    by_type: Dict[str, int] = {}
    for event in events:
        kind = event.get("event", "?")
        by_type[kind] = by_type.get(kind, 0) + 1

    summary: Dict[str, Any] = {
        "run": {
            "run_id": meta.get("run_id"),
            "label": meta.get("label"),
            "events": len(events),
            "event_counts": dict(sorted(by_type.items())),
        },
    }

    # -- fit ------------------------------------------------------------
    chunks = [e for e in events if e.get("event") == "chunk_result"]
    fit_end = [e for e in events if e.get("event") == "fit_end"]
    fit_start = [e for e in events if e.get("event") == "fit_start"]
    if fit_start or chunks or fit_end:
        summary["fit"] = {
            "runs": [
                {k: e.get(k) for k in
                 ("model", "backend", "jobs", "n_chunks", "records")}
                for e in fit_start
            ],
            "chunks": [
                {k: e.get(k) for k in
                 ("chunk", "mode", "train_seconds", "epochs")}
                for e in chunks
            ],
            "totals": [
                {k: e.get(k) for k in
                 ("wall_seconds", "cpu_seconds", "backend", "epsilon")}
                for e in fit_end
            ],
        }

    # -- generate -------------------------------------------------------
    rounds = [e for e in events if e.get("event") == "generate_round"]
    gen_end = [e for e in events if e.get("event") == "generate_end"]
    if rounds or gen_end:
        summary["generate"] = {
            "rounds": [
                {k: e.get(k) for k in
                 ("round", "tasks", "accepted", "rejected", "records",
                  "shortfall", "seconds", "samples_per_sec")}
                for e in rounds
            ],
            "totals": [
                {k: e.get(k) for k in ("wall_seconds", "records", "rounds")}
                for e in gen_end
            ],
        }

    # -- differential privacy ------------------------------------------
    dp_chunks = [e for e in events if e.get("event") == "dp_epsilon"]
    if dp_chunks:
        summary["dp"] = {
            "per_chunk": [
                {"chunk": e.get("chunk"), "steps": e.get("steps"),
                 "epsilon": e.get("epsilon")}
                for e in dp_chunks
            ],
        }

    # -- worker retries / shm traffic ----------------------------------
    retries = [e for e in events if e.get("event") == "worker_retry"]
    if retries:
        summary["worker_retries"] = [
            {k: e.get(k) for k in ("task", "attempt", "pid")}
            for e in retries
        ]
    staged = [e for e in events if e.get("event") == "shm_stage"]
    unlinked = [e for e in events if e.get("event") == "shm_unlink"]
    if staged or unlinked:
        summary["shm"] = {
            "blocks_staged": len(staged),
            "bytes_staged": sum(int(e.get("nbytes", 0)) for e in staged),
            "unlink_events": len(unlinked),
            "bytes_unlinked": sum(int(e.get("nbytes", 0)) for e in unlinked),
        }

    # -- spans ----------------------------------------------------------
    flat: List[Dict[str, Any]] = []
    for event in events:
        if event.get("event") != "span":
            continue
        for path, node in _walk_spans(event.get("span", {})):
            flat.append({
                "path": path,
                "duration_s": float(node.get("duration_s", 0.0)),
                "task_id": node.get("task_id"),
                "worker_pid": node.get("worker_pid"),
                "attrs": node.get("attrs"),
            })
    if flat:
        flat.sort(key=lambda item: -item["duration_s"])
        summary["spans"] = {
            "total": len(flat),
            "slowest": flat[:top_spans],
        }

    # -- metrics snapshot ----------------------------------------------
    metric_events = [e for e in events if e.get("event") == "metrics"]
    if metric_events:
        # Shared serializer: the serve daemon's `metrics` response and
        # this report render the identical shape.
        summary["metrics"] = metrics_snapshot(metric_events[-1])
    return summary


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.3f}s"


def render_text(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize`'s output."""
    lines: List[str] = []
    run = summary["run"]
    lines.append(f"run {run.get('run_id')}"
                 + (f"  ({run['label']})" if run.get("label") else ""))
    lines.append(f"  events: {run['events']}  "
                 + "  ".join(f"{k}={v}"
                             for k, v in run["event_counts"].items()))

    fit = summary.get("fit")
    if fit:
        lines.append("fit:")
        for entry in fit["runs"]:
            lines.append(
                f"  {entry.get('model')}: backend={entry.get('backend')} "
                f"jobs={entry.get('jobs')} n_chunks={entry.get('n_chunks')} "
                f"records={entry.get('records')}")
        for chunk in fit["chunks"]:
            lines.append(
                f"  chunk {chunk.get('chunk')}: "
                f"{_fmt_seconds(chunk.get('train_seconds'))} "
                f"mode={chunk.get('mode')} epochs={chunk.get('epochs')}")
        for total in fit["totals"]:
            eps = total.get("epsilon")
            lines.append(
                f"  total: wall={_fmt_seconds(total.get('wall_seconds'))} "
                f"cpu={_fmt_seconds(total.get('cpu_seconds'))}"
                + (f" epsilon={eps:.3f}" if isinstance(eps, float) else ""))

    gen = summary.get("generate")
    if gen:
        lines.append("generate:")
        for rnd in gen["rounds"]:
            rate = rnd.get("samples_per_sec")
            lines.append(
                f"  round {rnd.get('round')}: accepted "
                f"{rnd.get('accepted')}/{rnd.get('tasks')} chunks, "
                f"+{rnd.get('records')} records "
                f"(shortfall {rnd.get('shortfall')})"
                + (f" @ {rate:g} rec/s" if isinstance(rate, (int, float))
                   and rate else ""))
        for total in gen["totals"]:
            lines.append(
                f"  total: wall={_fmt_seconds(total.get('wall_seconds'))} "
                f"records={total.get('records')} rounds={total.get('rounds')}")

    dp = summary.get("dp")
    if dp:
        lines.append("dp epsilon trajectory:")
        for entry in dp["per_chunk"]:
            lines.append(f"  chunk {entry['chunk']}: steps={entry['steps']} "
                         f"epsilon={entry['epsilon']:.3f}")

    retries = summary.get("worker_retries")
    if retries:
        lines.append(f"worker retries: {len(retries)}")
        for entry in retries:
            lines.append(f"  task {entry.get('task')} attempt "
                         f"{entry.get('attempt')} (dead pid {entry.get('pid')})")

    shm = summary.get("shm")
    if shm:
        lines.append(
            f"shm: staged {shm['blocks_staged']} blocks "
            f"({shm['bytes_staged']} bytes), "
            f"{shm['unlink_events']} unlink events "
            f"({shm['bytes_unlinked']} bytes)")

    spans = summary.get("spans")
    if spans:
        lines.append(f"slowest spans (of {spans['total']}):")
        for entry in spans["slowest"]:
            where = []
            if entry.get("task_id") is not None:
                where.append(f"task={entry['task_id']}")
            if entry.get("worker_pid") is not None:
                where.append(f"pid={entry['worker_pid']}")
            lines.append(
                f"  {entry['duration_s']:.3f}s  {entry['path']}"
                + (f"  [{' '.join(where)}]" if where else ""))

    metrics = summary.get("metrics")
    if metrics:
        if metrics["counters"]:
            lines.append("counters:")
            for name, value in metrics["counters"].items():
                lines.append(f"  {name} = {value:g}")
        if metrics["histograms"]:
            lines.append("histograms (bucket-bound percentiles):")
            for name, stats in metrics["histograms"].items():
                lines.append(
                    f"  {name}: n={stats['count']} "
                    f"mean={_fmt_seconds(stats['mean'])} "
                    f"p50={_fmt_seconds(stats['p50'])} "
                    f"p90={_fmt_seconds(stats['p90'])} "
                    f"p99={_fmt_seconds(stats['p99'])}")
    return "\n".join(lines)


def _as_paths(path_or_paths) -> List[Any]:
    """One journal path or a sequence of shard paths -> list of paths."""
    if isinstance(path_or_paths, (list, tuple)):
        return list(path_or_paths)
    return [path_or_paths]


def report(path, output_format: str = "text", top_spans: int = 10) -> str:
    """Render a summary of one journal — or of several shards merged.

    ``path`` may be a single journal path or a list of them (the
    coordinator's journal plus per-host shards from a distributed run);
    multiple paths are merged by :func:`~repro.telemetry.journal.
    load_journals` with events interleaved on ``ts``.
    """
    meta, events = load_journals(_as_paths(path))
    summary = summarize(meta, events, top_spans=top_spans)
    if output_format == "json":
        return json.dumps(summary, indent=2)
    return render_text(summary)


# ---------------------------------------------------------------------------
# journal diffing (``report --diff A B``)
# ---------------------------------------------------------------------------

def _pct_change(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Percent change from a to b; None when undefined (a missing/zero)."""
    if a is None or b is None or a == 0:
        return None
    return (b - a) / abs(a) * 100.0


def _total_train_seconds(summary: Dict[str, Any]) -> Optional[float]:
    fit = summary.get("fit")
    if not fit:
        return None
    chunks = [c.get("train_seconds") for c in fit.get("chunks", ())]
    chunks = [c for c in chunks if isinstance(c, (int, float))]
    if chunks:
        return float(sum(chunks))
    totals = [t.get("wall_seconds") for t in fit.get("totals", ())]
    totals = [t for t in totals if isinstance(t, (int, float))]
    return float(sum(totals)) if totals else None


def _cache_rates(summary: Dict[str, Any]) -> Dict[str, float]:
    """Hit rates from paired ``<name>.hits`` / ``<name>.misses`` counters."""
    counters = (summary.get("metrics") or {}).get("counters") or {}
    rates: Dict[str, float] = {}
    for name, hits in counters.items():
        if not name.endswith(".hits"):
            continue
        base = name[: -len(".hits")]
        misses = counters.get(base + ".misses", 0.0)
        total = float(hits) + float(misses)
        if total > 0:
            rates[base] = float(hits) / total
    return rates


def _infer_throughput(summary: Dict[str, Any]) -> Optional[float]:
    """Aggregate generation throughput (records/s) across rounds.

    Uses the per-round ``seconds``/``records`` pair so the figure is a
    time-weighted mean rather than an average of per-round rates.
    """
    gen = summary.get("generate")
    if not gen:
        return None
    records = seconds = 0.0
    for rnd in gen.get("rounds", ()):
        sec = rnd.get("seconds")
        if isinstance(sec, (int, float)) and sec > 0:
            seconds += float(sec)
            records += float(rnd.get("records") or 0)
    if seconds <= 0 or records <= 0:
        return None
    return records / seconds


def _accept_reject(summary: Dict[str, Any]) -> Optional[Tuple[int, int]]:
    gen = summary.get("generate")
    if not gen:
        return None
    accepted = sum(int(r.get("accepted") or 0) for r in gen.get("rounds", ()))
    rejected = sum(int(r.get("rejected") or 0) for r in gen.get("rounds", ()))
    if accepted == 0 and rejected == 0:
        return None
    return accepted, rejected


def _final_epsilon(summary: Dict[str, Any]) -> Optional[float]:
    dp = summary.get("dp")
    if not dp:
        return None
    eps = [e.get("epsilon") for e in dp.get("per_chunk", ())
           if isinstance(e.get("epsilon"), (int, float))]
    return max(eps) if eps else None


def diff_summaries(a: Dict[str, Any], b: Dict[str, Any],
                   fail_on_regression: Optional[float] = None
                   ) -> Dict[str, Any]:
    """Compare two run summaries (A = baseline, B = candidate).

    Covers the ledgers the bench and CI care about: epoch/chunk
    train timings, cache hit-rate counters (``*.hits``/``*.misses``
    pairs, including the ``nn.tape.infer.*`` tape-cache pair),
    generation throughput (records/s from round timings),
    generate-round accept/reject tallies, and the DP ε
    trajectory.  A *regression* is B being worse than A beyond the
    ``fail_on_regression`` percentage threshold: slower training, a
    lower cache hit rate, lower generation throughput, a higher
    rejection share, or more ε spent.
    """
    diff: Dict[str, Any] = {
        "runs": {
            "a": a.get("run", {}).get("run_id"),
            "b": b.get("run", {}).get("run_id"),
        },
    }
    regressions: List[Dict[str, Any]] = []
    threshold = fail_on_regression

    def flag(metric: str, a_val: float, b_val: float,
             change_pct: Optional[float]) -> None:
        if threshold is None or change_pct is None:
            return
        if change_pct > threshold:
            regressions.append({
                "metric": metric, "a": a_val, "b": b_val,
                "change_pct": change_pct,
            })

    # -- epoch/chunk timings -------------------------------------------
    ta, tb = _total_train_seconds(a), _total_train_seconds(b)
    if ta is not None or tb is not None:
        change = _pct_change(ta, tb)
        diff["train_seconds"] = {"a": ta, "b": tb, "change_pct": change}
        if ta is not None and tb is not None:
            flag("train_seconds", ta, tb, change)

    # -- cache hit counters --------------------------------------------
    ra, rb = _cache_rates(a), _cache_rates(b)
    caches: Dict[str, Any] = {}
    for name in sorted(set(ra) | set(rb)):
        entry = {"a": ra.get(name), "b": rb.get(name)}
        if name in ra and name in rb:
            # Hit rates live in [0, 1]; diff in percentage points and
            # flag *drops* (a lower rate in B is the regression).
            entry["change_pp"] = (rb[name] - ra[name]) * 100.0
            flag(f"cache:{name}", ra[name], rb[name],
                 -entry["change_pp"])
        caches[name] = entry
    if caches:
        diff["cache_hit_rates"] = caches

    # -- generation throughput -----------------------------------------
    sa, sb = _infer_throughput(a), _infer_throughput(b)
    if sa is not None or sb is not None:
        change = _pct_change(sa, sb)
        diff["samples_per_sec"] = {"a": sa, "b": sb, "change_pct": change}
        if sa is not None and sb is not None and change is not None:
            # Throughput regresses downward: flag when B is slower.
            flag("samples_per_sec", sa, sb, -change)

    # -- generate accept/reject ----------------------------------------
    ga, gb = _accept_reject(a), _accept_reject(b)
    if ga or gb:
        entry: Dict[str, Any] = {"a": ga, "b": gb}
        if ga and gb:
            share_a = ga[1] / max(ga[0] + ga[1], 1)
            share_b = gb[1] / max(gb[0] + gb[1], 1)
            entry["reject_share_a"] = share_a
            entry["reject_share_b"] = share_b
            flag("reject_share", share_a, share_b,
                 (share_b - share_a) * 100.0)
        diff["accept_reject"] = entry

    # -- dp epsilon ledger ---------------------------------------------
    ea, eb = _final_epsilon(a), _final_epsilon(b)
    if ea is not None or eb is not None:
        change = _pct_change(ea, eb)
        diff["epsilon"] = {"a": ea, "b": eb, "change_pct": change}
        if ea is not None and eb is not None:
            flag("epsilon", ea, eb, change)

    diff["regressions"] = regressions
    return diff


def render_diff_text(diff: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`diff_summaries`'s output."""
    lines: List[str] = []
    runs = diff.get("runs", {})
    lines.append(f"diff {runs.get('a')} -> {runs.get('b')}")

    def fmt_pct(value: Optional[float]) -> str:
        return f"{value:+.1f}%" if value is not None else "n/a"

    train = diff.get("train_seconds")
    if train:
        lines.append(
            f"  train: {_fmt_seconds(train['a'])} -> "
            f"{_fmt_seconds(train['b'])} ({fmt_pct(train.get('change_pct'))})")

    caches = diff.get("cache_hit_rates")
    if caches:
        lines.append("  cache hit rates:")
        for name, entry in caches.items():
            a_txt = (f"{entry['a'] * 100:.1f}%" if entry.get("a") is not None
                     else "-")
            b_txt = (f"{entry['b'] * 100:.1f}%" if entry.get("b") is not None
                     else "-")
            pp = entry.get("change_pp")
            pp_txt = f" ({pp:+.1f}pp)" if pp is not None else ""
            lines.append(f"    {name}: {a_txt} -> {b_txt}{pp_txt}")

    rate = diff.get("samples_per_sec")
    if rate:
        def fmt_rate(value):
            return f"{value:.1f} rec/s" if value is not None else "-"
        lines.append(
            f"  generate throughput: {fmt_rate(rate['a'])} -> "
            f"{fmt_rate(rate['b'])} ({fmt_pct(rate.get('change_pct'))})")

    acc = diff.get("accept_reject")
    if acc:
        def fmt_pair(pair):
            return (f"{pair[0]} accepted / {pair[1]} rejected"
                    if pair else "-")
        lines.append(f"  generate: {fmt_pair(acc.get('a'))} -> "
                     f"{fmt_pair(acc.get('b'))}")

    eps = diff.get("epsilon")
    if eps:
        def fmt_eps(value):
            return f"{value:.3f}" if value is not None else "-"
        lines.append(
            f"  epsilon: {fmt_eps(eps['a'])} -> {fmt_eps(eps['b'])} "
            f"({fmt_pct(eps.get('change_pct'))})")

    regressions = diff.get("regressions") or []
    if regressions:
        lines.append("regressions:")
        for entry in regressions:
            lines.append(
                f"  {entry['metric']}: {entry['a']:.4g} -> "
                f"{entry['b']:.4g} ({entry['change_pct']:+.1f}%)")
    else:
        lines.append("no regressions")
    return "\n".join(lines)


def diff_report(path_a, path_b, output_format: str = "text",
                fail_on_regression: Optional[float] = None
                ) -> Tuple[str, bool]:
    """Diff two journals; returns (rendering, has_regressions).

    Either side may be a list of shard paths (merged before
    summarizing), so distributed runs diff exactly like local ones.
    """
    meta_a, events_a = load_journals(_as_paths(path_a))
    meta_b, events_b = load_journals(_as_paths(path_b))
    diff = diff_summaries(
        summarize(meta_a, events_a), summarize(meta_b, events_b),
        fail_on_regression=fail_on_regression)
    text = (json.dumps(diff, indent=2) if output_format == "json"
            else render_diff_text(diff))
    return text, bool(diff["regressions"])
