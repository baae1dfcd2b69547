"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py --base .perfbench/results/A/*.json \\
                                 [--new .perfbench/results/B/*.json]

Each file is a run record written by run.py.  For every workload and every
end-to-end metric the script prints each set's median and quartile spread
(q3 - q1, as a share of the median).  With --new it also prints how far the
new median moved from the base median in the metric's worse direction.

Exit status 1 when a spread exceeds its bound (``setup_s`` excepted, as its
spread is not gated) or a median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load(paths):
    """{workload: {metric: [values]}} from untraced run records."""
    sets = defaultdict(lambda: defaultdict(list))
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        if record.get("trace"):
            continue
        for name, metric in record["result"]["metrics"].items():
            sets[record["workload"]][name].append(metric["value"])
    return sets


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base, new, better):
    change = (statistics.median(new) - statistics.median(base)) / statistics.median(base)
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    base = load(args.base)
    new = load(args.new) if args.new else None
    ok = True
    for workload in sorted(base):
        print(workload)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = base[workload].get(name, [])
            if len(a) < 2:
                print(f"  {name:<14} fewer than two base runs")
                continue
            line = (f"  {name:<14} base n={len(a):<2} median {statistics.median(a):10.4f} "
                    f"spread {spread(a):6.3f}")
            gated = [spread(a)] if name != "setup_s" else []
            if new is not None:
                b = new.get(workload, {}).get(name, [])
                if len(b) < 2:
                    line += "   new: fewer than two runs"
                    ok = False
                else:
                    moved = worse_by(a, b, m["better"])
                    line += (f" | new n={len(b):<2} median {statistics.median(b):10.4f} "
                             f"spread {spread(b):6.3f} worse by {moved:+.3f}")
                    if name != "setup_s":
                        gated.append(spread(b))
                    if moved > bound:
                        line += "  REGRESSION"
                        ok = False
            if any(s > bound for s in gated):
                line += "  SPREAD>BOUND"
                ok = False
            print(line + f"  (bound {bound})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
