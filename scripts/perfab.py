#!/usr/bin/env python3
"""Interleaved A/B runs of one perfbench workload on two builds.

Usage, from anywhere in a checkout:

    python3 scripts/perfab.py --base HEAD~1 --workload geo-write \\
        --pairs 10 --seconds 30 --seed 7001 --out ab.jsonl

Each side is a git revision or the directory of a checkout. A revision
is exported with `git archive` into a temporary directory, so nothing is
fetched and the repository's .git is left untouched; --head defaults to
the checkout this script lives in. perfbench/run.py builds each side
from its own source the first time that side runs. Pair i runs both
sides on seed SEED+i, the base first in even pairs and the head first
in odd ones.

Every run's output lines are kept (--out, one JSON object per run). The
summary gives, for each metric, each side's median and quartiles, the
head/base ratio of the medians, the pairs the head won (ties count for
neither side) and "unresolved" where a side's interquartile range,
relative to its median, exceeds the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(spec, into):
    """Return a checkout directory for spec: spec itself when it is one,
    else the revision spec exported under into."""
    if os.path.isfile(os.path.join(spec, "perfbench", "run.py")):
        return os.path.abspath(spec)
    rev = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", spec + "^{commit}"],
        check=True, capture_output=True, text=True).stdout.strip()
    path = os.path.join(into, rev[:12])
    os.makedirs(path)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("perfab: git archive %s failed" % rev)
    return path


def run(side, checkout, args, seed):
    """Run one workload on one side and return its record."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.splitlines()
    rec = {"side": side, "seed": seed, "exit": p.returncode,
           "stdout": lines, "stderr": p.stderr.splitlines()}
    try:
        rec["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec["result"] = None
    return rec


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records, bench, out):
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    by = {"base": {}, "head": {}}
    for rec in records:
        res = rec["result"]
        if res is not None:
            by[rec["side"]][rec["seed"]] = res
    seeds = sorted(set(by["base"]) & set(by["head"]))
    for side in ("base", "head"):
        runs = list(by[side].values())
        bad = sum(1 for r in runs if not r["correct"] or r["failed"])
        out.write("%s: %d runs, %d failed their check or an op; %d runs gave no result\n" % (
            side, len(runs), bad, sum(1 for r in records if r["side"] == side and r["result"] is None)))
    if not seeds:
        return
    names = [n for n in specs if all(n in by[s][seed]["metrics"] for s in by for seed in seeds)]
    out.write("%-34s %-28s %-28s %9s %8s\n" % ("metric", "base median [q1-q3]", "head median [q1-q3]", "head/base", "head won"))
    for name in names:
        spec = specs[name]
        cols, tag = [], ""
        for side in ("base", "head"):
            xs = sorted(by[side][s]["metrics"][name]["value"] for s in seeds)
            q1, med, q3 = quartiles(xs)
            cols.append((q1, med, q3))
            bound = spec.get("bound")
            if bound is not None and med and (q3 - q1) / abs(med) > bound:
                tag = "unresolved"
        lower = spec["better"] == "lower"
        won = 0
        for s in seeds:
            b, h = by["base"][s]["metrics"][name]["value"], by["head"][s]["metrics"][name]["value"]
            won += (h < b) if lower else (h > b)
        ratio = cols[1][1] / cols[0][1] if cols[0][1] else float("nan")
        fmt = lambda c: "%.4g [%.4g-%.4g]" % (c[1], c[0], c[2])
        out.write("%-34s %-28s %-28s %9.3f %5d/%-2d %s\n" % (
            name, fmt(cols[0]), fmt(cols[1]), ratio, won, len(seeds), tag))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="revision or checkout directory of the base side")
    ap.add_argument("--head", default=ROOT, help="revision or checkout directory of the head side (default: this checkout)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses SEED+i")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="append every run's record to this file, one JSON object a line")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    tmp = tempfile.mkdtemp(prefix="perfab-")
    try:
        sides = {"base": export(args.base, tmp), "head": export(args.head, tmp)}
        records = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                rec = run(side, sides[side], args, seed)
                records.append(rec)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(rec) + "\n")
                res = rec["result"]
                sys.stderr.write("pair %d seed %d %s: exit %d%s\n" % (
                    i + 1, seed, side, rec["exit"],
                    "" if res is None else " correct=%s failed=%d" % (res["correct"], res["failed"])))
        sys.stdout.write("%s, %d pairs, seeds %d-%d, %g s, trace %d\nbase %s\nhead %s\n" % (
            args.workload, args.pairs, args.seed, args.seed + args.pairs - 1,
            args.seconds, args.trace, args.base, args.head))
        summarize(records, bench, sys.stdout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
