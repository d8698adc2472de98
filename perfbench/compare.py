"""Compare the benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files that run.py wrote (perfbench/results/ of
a checkout).  For every workload and end-to-end metric it prints each
side's median and quartiles, the change's pairwise win rate (runs paired
by seed, ties count for neither side) and a verdict:

- gain: the change wins at least 90% of the pairs and the medians differ by
  more than the parent's quartile distance;
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json, and the parent's spread is within
  the bound;
- unresolved: the parent's quartile distance, as a share of its median,
  is wider than the bound, unless every change run beats every parent run;
- no regression: otherwise.

The held-out risks (`neg_risk_*`) are deterministic for a seed, so they are
compared per seed instead: how many paired runs agree exactly, and the mean
paired change.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RISK_METRICS = ("neg_risk_lowrank", "neg_risk_standard")


def load_results(directory):
    """{workload: {metric: [(seed, value), ...]}} from untraced full-size runs."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json") or name.endswith("-spans.json"):
                continue
            with open(os.path.join(base, name), encoding="utf-8") as fh:
                rec = json.load(fh)
            if rec.get("trace") != 0 or rec.get("tiny"):
                continue
            per_metric = out.setdefault(rec["workload"], {})
            for metric, mv in rec["metrics"].items():
                if mv["value"] is not None:
                    per_metric.setdefault(metric, []).append((rec["seed"], mv["value"]))
    return out


def _seed_pairs(parent, change):
    """(parent value, change value) for runs of equal seed, in run order."""
    by_seed = {}
    for seed, v in change:
        by_seed.setdefault(seed, []).append(v)
    pairs = []
    for seed, v in parent:
        if by_seed.get(seed):
            pairs.append((v, by_seed[seed].pop(0)))
    return pairs


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Summary dict for one workload and metric; parent/change are (seed, value)."""
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    pm, cm = statistics.median(pv), statistics.median(cv)
    p_q1, p_q3 = _quartiles(pv)
    sign = 1.0 if better == "higher" else -1.0
    # without common seeds, pair the runs in the order they were made
    pairs = _seed_pairs(parent, change) or list(zip(pv, cv))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    win_rate = wins / len(pairs) if pairs else 0.0
    spread = (p_q3 - p_q1) / abs(pm)
    worse_by = -sign * (cm - pm) / abs(pm)
    all_better = (min(cv) > max(pv)) if sign > 0 else (max(cv) < min(pv))
    if win_rate >= 0.9 and abs(cm - pm) > p_q3 - p_q1 and worse_by < 0:
        result = "gain"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regression"
    else:
        result = "no regression"
    return {
        "parent": (pm, p_q1, p_q3),
        "change": (cm,) + _quartiles(cv),
        "win_rate": win_rate,
        "pairs": len(pairs),
        "worse_by": worse_by,
        "verdict": result,
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load_results(argv[0]), load_results(argv[1])
    print(f"{'workload':20s} {'metric':18s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'worse by':>9s} {'wins':>9s}  verdict")
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            p = parent.get(wl["name"], {}).get(metric["name"])
            c = change.get(wl["name"], {}).get(metric["name"])
            if not p or not c:
                print(f"{wl['name']:20s} {metric['name']:18s} missing results")
                continue
            v = verdict(p, c, metric["better"], metric["bound"])
            fmt = "{:.5g} [{:.5g}, {:.5g}]"
            print(f"{wl['name']:20s} {metric['name']:18s} "
                  f"{fmt.format(*v['parent']):34s} {fmt.format(*v['change']):34s} "
                  f"{v['worse_by']:+9.2%} {v['win_rate']:5.0%}/{v['pairs']:<3d}  "
                  f"{v['verdict']}")
    print()
    for wl in spec["workloads"]:
        for metric in RISK_METRICS:
            pairs = _seed_pairs(parent.get(wl["name"], {}).get(metric, []),
                                change.get(wl["name"], {}).get(metric, []))
            if not pairs:
                print(f"{wl['name']:20s} {metric:18s} no runs with equal seeds")
                continue
            same = sum(p == c for p, c in pairs)
            shift = statistics.fmean((c - p) / abs(p) for p, c in pairs)
            print(f"{wl['name']:20s} {metric:18s} identical on {same}/{len(pairs)} "
                  f"seeds, mean paired change {shift:+.3%} (higher is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
