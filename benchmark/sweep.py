#!/usr/bin/env python3
"""Runs the benchmark over several seeds, summarises a run set, and
compares two run sets. Run from the repository root.

  python3 benchmark/sweep.py run DIR [--runs 10] [--first-seed 1] [--trace 0|1]
                                     [--seconds S] [--workload W ...]
  python3 benchmark/sweep.py summary DIR
  python3 benchmark/sweep.py compare PARENT_DIR CHANGE_DIR

`run` keeps each run's standard output as DIR/<workload>-trace<T>-seed<N>.txt.
`summary` prints, per workload and metric, the median over seeds and the
spread: the distance between the first and third quartile as a share of
the median. `compare` pairs the two sets' runs by workload and seed and
prints, per end-to-end metric, both medians, the change, how many pairs
the second set won, and whether the change stays within the metric's
bound; it also checks that digests and modeled time agree seed by seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
E2E = {m["name"]: m for m in BENCH["end_to_end"]}


def run(args):
    os.makedirs(args.dir, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
    seconds = str(args.seconds or BENCH["run_seconds"])
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = BENCH["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            with open(os.path.join(args.dir, f"{w}-trace{args.trace}-seed{seed}.txt"), "w") as f:
                f.write(p.stdout)
            print(f"{w} seed {seed}: {'ok' if p.returncode == 0 else f'exit {p.returncode}'}",
                  flush=True)
            if p.returncode:
                sys.stderr.write(p.stderr[-4000:])


def load(d):
    """{(workload, trace): {seed: result}}, each result carrying the
    printed lines as `extras` {metric: value}."""
    out = {}
    for name in sorted(os.listdir(d)):
        if not name.endswith(".txt"):
            continue
        w, trace, seed = name[:-4].rsplit("-", 2)
        with open(os.path.join(d, name)) as f:
            lines = f.read().splitlines()
        if not lines:
            continue
        res = json.loads(lines[-1])
        res["extras"] = {l.split()[1]: l.split()[2] for l in lines[:-1] if len(l.split()) == 4}
        out.setdefault((w, trace), {})[int(seed[len("seed"):])] = res
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def summary(args):
    for (w, trace), runs in sorted(load(args.dir).items()):
        ok = all(r["correct"] and r["failed"] == 0 for r in runs.values())
        print(f"== {w} {trace}: {len(runs)} runs, all correct: {ok}")
        names = sorted({m for r in runs.values() for m in r["metrics"]})
        for m in names:
            vals = [r["metrics"][m]["value"] for r in runs.values() if m in r["metrics"]]
            unit = next(iter(runs.values()))["metrics"][m]["unit"]
            line = f"  {m:32} median {statistics.median(vals):14.6g} {unit:6}"
            if len(vals) >= 2:
                s = spread(vals)
                bound = E2E.get(m, {}).get("bound")
                flag = "" if bound is None else ("  ok" if s < bound / 3 else "  WIDE")
                line += f" spread {s:7.2%}{flag}"
            print(line)


def compare(args):
    a, b = load(args.parent), load(args.change)
    bad = False
    for key in sorted(set(a) & set(b)):
        w, trace = key
        seeds = sorted(set(a[key]) & set(b[key]))
        print(f"== {w} {trace}: {len(seeds)} paired seeds")
        for s in seeds:
            for extra in ("digest", "vtime_ms_per_op"):
                x, y = a[key][s]["extras"].get(extra), b[key][s]["extras"].get(extra)
                if x != y:
                    bad = True
                    print(f"  seed {s}: {extra} differs: {x} vs {y}")
        for m, spec in E2E.items():
            if not all(m in a[key][s]["metrics"] and m in b[key][s]["metrics"] for s in seeds):
                continue
            pa = [a[key][s]["metrics"][m]["value"] for s in seeds]
            pb = [b[key][s]["metrics"][m]["value"] for s in seeds]
            ma, mb = statistics.median(pa), statistics.median(pb)
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma if ma else 0.0
            wins = sum(1 for x, y in zip(pa, pb) if sign * (y - x) < 0)
            within = worse <= spec["bound"]
            bad |= not within
            print(f"  {m:18} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+7.2%}"
                  f" (bound {spec['bound']:.0%}) {'ok' if within else 'REGRESSION'}"
                  f"  wins {wins}/{len(seeds)}, parent spread {spread(pa) if len(pa) > 1 else 0:.2%}")
    sys.exit(1 if bad else 0)


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("dir")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--seconds", type=int)
    r.add_argument("--workload", action="append")
    s = sub.add_parser("summary")
    s.add_argument("dir")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = p.parse_args()
    {"run": run, "summary": summary, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
