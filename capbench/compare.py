#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

  python3 capbench/compare.py PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds <workload>/<name>.json files, each the last stdout line
of one `capbench/run.py` run. Runs are paired in file-name order, so name
them by pair index and alternate which side runs first. One row is printed
per (metric, workload) with each side's median and quartiles, the pair wins
and a verdict from stats.verdict: improved, unchanged, worse or unresolved.
End-to-end metrics use the bounds in BENCHMARK.json; per-layer metrics (from
--trace 1 runs) have none. One more row per workload compares failures: it
is worse when any change run is not correct or the change fails a larger
share of its operations than the parent. Exits 1 when any row is worse.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402


def load_runs(root):
    """{workload: [result object per run]} in file-name order."""
    runs = {}
    for workload in sorted(os.listdir(root)):
        d = os.path.join(root, workload)
        if not os.path.isdir(d):
            continue
        for name in sorted(os.listdir(d)):
            if name.endswith(".json"):
                with open(os.path.join(d, name)) as f:
                    doc = json.loads(f.read().strip().splitlines()[-1])
                runs.setdefault(workload, []).append(doc)
    return runs


def failures(parent, change):
    """Failure verdict for one workload's runs: worse when any change run is
    not correct or the change fails a larger share of its attempted
    operations than the parent, else unchanged.

    Returns (verdict, (parent failed, attempted), (change failed, attempted)).
    """
    def total(runs):
        return (sum(r["failed"] for r in runs),
                sum(r["attempted"] for r in runs))
    (pf, pa), (cf, ca) = total(parent), total(change)
    worse = not all(r["correct"] for r in change) or cf * pa > pf * ca
    return ("worse" if worse else "unchanged"), (pf, pa), (cf, ca)


def compare(parent, change, spec):
    """Yields (workload, metric, verdict, detail) rows. A gain does not
    count on a workload whose failures are worse."""
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in sorted(set(parent) & set(change)):
        failing = failures(parent[workload], change[workload])[0] == "worse"
        p_runs = [r["metrics"] for r in parent[workload]]
        c_runs = [r["metrics"] for r in change[workload]]
        n = min(len(p_runs), len(c_runs))
        names = [m for m in info if m in p_runs[0] and m in c_runs[0]]
        for metric in names:
            p = [r[metric]["value"] for r in p_runs[:n]]
            c = [r[metric]["value"] for r in c_runs[:n]]
            m = info[metric]
            v, detail = stats.verdict(p, c, m["better"], m.get("bound"))
            if failing and v == "improved":
                v = "unchanged"
            detail["parent_q"] = stats.quartiles(p)
            detail["change_q"] = stats.quartiles(c)
            yield workload, metric, v, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default="BENCHMARK.json")
    a = ap.parse_args(argv)
    with open(a.spec) as f:
        spec = json.load(f)
    parent, change = load_runs(a.parent), load_runs(a.change)
    rows = list(compare(parent, change, spec))
    print("workload     metric                         parent median [q1, q3]"
          "      change median [q1, q3]      wins   verdict")
    worse = False
    for workload, metric, v, d in rows:
        pq, cq = d["parent_q"], d["change_q"]
        print(f"{workload:12s} {metric:30s} "
              f"{pq[1]:.6g} [{pq[0]:.4g}, {pq[2]:.4g}]  "
              f"{cq[1]:.6g} [{cq[0]:.4g}, {cq[2]:.4g}]  "
              f"{d['wins']}/{d['pairs']}  {v}")
        worse |= v == "worse"
    for workload in sorted(set(parent) & set(change)):
        v, (pf, pa), (cf, ca) = failures(parent[workload], change[workload])
        print(f"{workload:12s} {'failed/attempted':30s} {pf}/{pa}  {cf}/{ca}  "
              f"{v}")
        worse |= v == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
