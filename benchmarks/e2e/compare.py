"""Judge a change against its parent with the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT CHANGE

PARENT and CHANGE are checkouts of the two commits.  For every
workload the script runs 10 pairs -- seed i in pair i, the side that
runs first alternating -- each run being ``benchmarks/e2e/run.py``
inside that checkout at this benchmark's ``run_seconds``, and prints
one row per workload.  Per (metric, workload), over the pairs in which
both sides finished:

* ``gain``: the change is better in at least 9 of every 10 pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range;
* ``unresolved``: the parent's own relative spread exceeds the metric's
  bound and not every change run beats every parent run;
* ``REGRESSION``: the change's median is worse than the parent's by
  more than the bound in ``BENCHMARK.json``;
* ``ok``: none of these.

The row also compares failed/attempted operations and runs that
crashed (a gain with more of either than the parent does not count),
and whether the two sides' output digests are identical, pair by pair.
The exit code is 1 on any regression or any crashed change run.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from run import HERE, load_spec, quartiles, relative_iqr

PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    """Classify one (metric, workload) from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    base, new = quartiles(parent), quartiles(change)
    gained = sign * (new["median"] - base["median"])
    if (len(parent) >= PAIRS
            and wins >= math.ceil(WIN_SHARE * len(parent))
            and gained > base["q3"] - base["q1"]):
        return "gain"
    if relative_iqr(base) > bound and not all(
            sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    if base["median"] and -gained / abs(base["median"]) > bound:
        return "REGRESSION"
    return "ok"


def run_side(checkout: Path, workload: str, seed: int,
             seconds: float) -> Optional[dict]:
    """One run inside ``checkout``: its full result, None if it crashed."""
    out = HERE / "results" / "compare-run.jsonl"
    out.parent.mkdir(exist_ok=True)
    out.unlink(missing_ok=True)
    subprocess.run([sys.executable, "benchmarks/e2e/run.py",
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--out", str(out)],
                   cwd=checkout, check=False, stdout=subprocess.DEVNULL)
    lines = out.read_text().splitlines() if out.exists() else []
    return json.loads(lines[-1]) if lines else None


def compare_workload(spec: dict, parent: List[Optional[dict]],
                     change: List[Optional[dict]]) -> str:
    pairs = [(p, c) for p, c in zip(parent, change)
             if p is not None and c is not None]
    cells = []
    for entry in spec["end_to_end"] if pairs else ():
        name = entry["name"]
        base = [p["metrics"][name] for p, _ in pairs]
        new = [c["metrics"][name] for _, c in pairs]
        p, c = quartiles(base)["median"], quartiles(new)["median"]
        delta = (c - p) / p if p else 0.0
        cells.append(f"{name} {p:.4g}->{c:.4g} ({delta:+.1%}) "
                     f"{verdict(base, new, entry['better'], entry['bound'])}")
    crashed = [sum(r is None for r in side) for side in (parent, change)]
    failed = [sum(r["failed"] for r in side if r is not None)
              for side in (parent, change)]
    attempted = [sum(r["attempted"] for r in side if r is not None)
                 for side in (parent, change)]
    worse = failed[1] > failed[0] or crashed[1] > crashed[0]
    cells.append(f"failed {failed[0]}/{attempted[0]} vs "
                 f"{failed[1]}/{attempted[1]}, crashed runs "
                 f"{crashed[0]} vs {crashed[1]}"
                 + (" (gains void)" if worse else ""))
    same = all(p["output_digest"] == c["output_digest"] for p, c in pairs)
    cells.append("outputs bit-identical" if same else "outputs differ")
    return " | ".join(cells)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    checkouts = (args.parent, args.change)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        sides: List[List[Optional[dict]]] = [[], []]
        for seed in range(PAIRS):
            for side in ((0, 1) if seed % 2 == 0 else (1, 0)):
                sides[side].append(run_side(checkouts[side], workload, seed,
                                            spec["run_seconds"]))
        row = compare_workload(spec, *sides)
        print(f"{workload}: {row}", flush=True)
        if "REGRESSION" in row or None in sides[1]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
