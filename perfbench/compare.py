"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the records ``run.py --out`` appended, for any number of
workloads and seeds; traced records are ignored.  Every run counts, a
seed run twice included.  For every workload and end-to-end metric it
prints each side's median and quartiles, the pairs HEAD won (runs paired
by seed, the k-th run of a seed on one side with the k-th on the other;
ties count for neither side), and a verdict under the bounds in
``spec.py``:

* ``better``: HEAD won at least nine tenths of the pairs and the medians
  differ by more than BASE's interquartile distance;
* ``worse``: HEAD's median is worse than BASE's by more than the bound,
  and the spread is within the bound or every HEAD run is worse;
* ``unresolved``: neither.  The note says whether the medians are within
  the bound or the run-to-run spread is wider than the bound, in which
  case "within bound" cannot be told from noise.

A workload measured on both sides without a seed in common is an error.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402


def load(path: str) -> dict[str, dict[int, list[dict]]]:
    """workload -> seed -> metric values of each untraced record, in file order."""
    out: dict[str, dict[int, list[dict]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"] == 0:
            values = {k: m["value"] for k, m in rec["metrics"].items()}
            out.setdefault(rec["workload"], {}).setdefault(rec["seed"], []).append(values)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], head: list[float], pairs, better: str, bound: float):
    """(verdict, note, pairs won) for one metric of one workload."""
    sign = 1 if better == "lower" else -1  # sign * (head - base) < 0 means HEAD is better
    won = sum(1 for b, h in pairs if sign * (h - b) < 0)
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    spread = max((bq3 - bq1) / bmed, (hq3 - hq1) / hmed) if bmed and hmed else 0.0
    worse_share = sign * (hmed - bmed) / bmed if bmed else 0.0
    gain = sign * (bmed - hmed)
    if pairs and won >= 0.9 * len(pairs) and gain > 0 and gain > bq3 - bq1:
        return "better", f"{-worse_share:+.1%}", won
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    all_worse = all(sign * (h - b) > 0 for h in head for b in base)
    if worse_share > bound and (spread <= bound or all_worse):
        return "worse", f"{worse_share:+.1%} > bound {bound:.0%}", won
    if spread > bound and not all_better:
        return "unresolved", f"spread {spread:.1%} > bound {bound:.0%}", won
    return "unresolved", f"within bound {bound:.0%}: HEAD {worse_share:+.1%} worse", won


def compare(base_path: str, head_path: str) -> list[str]:
    base, head = load(base_path), load(head_path)
    lines = [f"{'workload':10} {'metric':15} {'base q1/median/q3':>30} {'head q1/median/q3':>30}"
             f" {'won':>7}  verdict"]
    for workload in [w["name"] for w in spec.WORKLOADS]:
        if workload not in base or workload not in head:
            continue
        b_runs, h_runs = base[workload], head[workload]
        shared = sorted(set(b_runs) & set(h_runs))
        if not shared:
            raise ValueError(f"{workload}: no seed measured on both sides")
        paired = [pair for s in shared for pair in zip(b_runs[s], h_runs[s])]
        for metric in spec.END_TO_END:
            name = metric["name"]
            b = [r[name] for runs in b_runs.values() for r in runs]
            h = [r[name] for runs in h_runs.values() for r in runs]
            pairs = [(pb[name], ph[name]) for pb, ph in paired]
            v, note, won = verdict(b, h, pairs, metric["better"], metric["bound"])
            fmt = "{:.4g}/{:.4g}/{:.4g}".format
            lines.append(f"{workload:10} {name:15} {fmt(*quartiles(b)):>30} "
                         f"{fmt(*quartiles(h)):>30} {won:>3}/{len(pairs):<3}  {v} ({note})")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        lines = compare(*argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
