"""Compare two benchmark ledgers metric by metric.

Usage, from the repository root::

    python3 perfbench/layerdiff.py BEFORE.jsonl AFTER.jsonl

Each file is a JSON-lines ledger that ``perfbench/run.py --out`` appended
entries to; each entry (one run) is one sample of every metric it
reports, so several runs per side give the run-to-run spread.  Entries
are grouped by workload and trace mode; for every metric of every group
the script prints both medians, the relative change and a verdict:

* ``better`` / ``worse`` -- the medians differ by more than the
  run-to-run spread (the larger quartile distance of the two sides), or
  every sample of one side beats every sample of the other;
* ``unresolved`` -- the change lies inside the spread, so the runs
  cannot tell it from noise (never reported as "unchanged");
* ``same count`` / ``changed count`` -- exact counts, which repeat
  exactly and so need no spread;
* ``one sample`` -- a timing with a single run on a side: no spread to
  judge it by.

Times and sizes are better when lower, ``kcycles_per_s`` and
``pass_frac`` when higher; a per-layer ratio (coverage, hit ratio) is
only reported as ``lower`` or ``higher``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Units whose values are exact counts.
COUNT_UNITS = ("count", "B")
HIGHER_IS_BETTER = ("kcycles_per_s", "pass_frac")


Groups = Dict[Tuple[str, int], Dict[str, List[float]]]


def load(path: Path) -> Tuple[Groups, Dict[str, str]]:
    """Each run's metric values grouped by (workload, trace), and units."""
    groups: Groups = defaultdict(lambda: defaultdict(list))
    units: Dict[str, str] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        group = groups[(entry["workload"], entry["trace"])]
        for name, metric in entry["metrics"].items():
            units[name] = metric["unit"]
            group[name].append(metric["value"])
    return groups, units


def spread(values: List[float]) -> Optional[float]:
    """Distance between the first and third quartile; None below two."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(name: str, unit: str, before: List[float],
            after: List[float]) -> str:
    mb, ma = statistics.median(before), statistics.median(after)
    if unit in COUNT_UNITS:
        return "same count" if mb == ma else "changed count"
    higher = name in HIGHER_IS_BETTER
    delta = ma - mb
    improved = delta > 0 if higher else delta < 0
    good, bad = ("better", "worse")
    if unit == "ratio" and not higher:
        good, bad = ("lower", "higher")  # a layer ratio has no direction
    disjoint = max(after) < min(before) or min(after) > max(before)
    spreads = [s for s in (spread(before), spread(after)) if s is not None]
    if delta == 0:
        return "unresolved" if spreads else "one sample"
    if disjoint and len(before) > 1 and len(after) > 1:
        return good if improved else bad
    if not spreads or len(before) < 2 or len(after) < 2:
        return "one sample"
    if abs(delta) <= max(spreads):
        return "unresolved"
    return good if improved else bad


def compare(before_path: Path, after_path: Path) -> List[str]:
    before, units = load(before_path)
    after, after_units = load(after_path)
    units.update(after_units)
    lines = []
    for group in sorted(set(before) & set(after)):
        workload, trace = group
        lines.append(f"== {workload} ({'traced' if trace else 'untraced'})")
        for name in sorted(set(before[group]) & set(after[group])):
            b, a = before[group][name], after[group][name]
            unit = units.get(name, "s" if name.endswith("_s") else "count")
            mb, ma = statistics.median(b), statistics.median(a)
            change = f"{(ma - mb) / mb * 100:+.1f}%" if mb else "n/a"
            lines.append(
                f"{name:28s} {mb:12.6g} -> {ma:12.6g} {unit:9s} "
                f"{change:>8s}  {verdict(name, unit, b, a)}"
                f"  (n={len(b)}/{len(a)})")
    for group in sorted(set(before) ^ set(after)):
        lines.append(f"== {group[0]} ({'traced' if group[1] else 'untraced'})"
                     f": only in {'before' if group in before else 'after'}")
    return lines


def main(argv: "Optional[List[str]]" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for line in compare(Path(args[0]), Path(args[1])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
