#!/usr/bin/env python3
"""Alternating A/B runs of the wire-to-ack benchmark: a parent revision
against the working tree.

usage: python3 scripts/ab.py <parent-rev> [--workloads a,b,...] [--pairs N]
                             [--seed N] [--seconds N] [--trace]
                             [--claim WORKLOAD:METRIC] [--workdir DIR]
                             [--out FILE]

Run from anywhere inside the repository. The parent revision is exported
with `git archive` into a scratch directory (a temp dir, or --workdir)
and built there; the change side is the working tree as it stands,
uncommitted edits included. Both sides build their own `dwc` and load
generator before the first pair, so no build falls inside a run.

For each workload (default: every workload in BENCHMARK.json) the script
runs N pairs (default 10) of BENCHMARK.json's command, alternating the
order inside a pair (parent first in even pairs, change first in odd
ones) so that slow drifts of the host's speed hit both sides alike.
Both runs of a pair use the same seed: the load generator's own default
in every pair, or N + i in pair i with --seed N. The window is
BENCHMARK.json's unless --seconds overrides it. With --trace the
runs pass `--trace 1` and the per-layer metrics are compared instead,
with no bounds.

It prints, per pair, each end-to-end metric of both sides and their
ratio (change / parent); then per metric the median and quartiles of
each side and a verdict against the metric's BENCHMARK.json bound:
FAIL when the change's median is worse than the parent's by more than
the bound. A run with failed operations counts against its side's
failed-op share, which must not rise. --claim WORKLOAD:METRIC also
checks a claimed gain the way a gate does: better in at least nine of
ten pairs, and by more than the parent's inter-quartile distance in the
median. The exit status is non-zero when any verdict fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

DEFAULT_PAIRS = 10


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(rev, root, dest):
    """Writes the tree of `rev` into `dest`, unless an earlier invocation
    with the same --workdir already did (its build is then reused)."""
    if os.path.isdir(dest):
        return
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], cwd=root, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def child_env():
    env = dict(os.environ)
    # Each side must build into its own `target`, never a shared one.
    env.pop("CARGO_TARGET_DIR", None)
    env["CARGO_NET_OFFLINE"] = "true"
    return env


def build(side, cwd):
    print(f"building {side} in {cwd}", flush=True)
    for argv in (["cargo", "build", "--release", "--quiet", "--bin", "dwc"],
                 ["cargo", "build", "--release", "--quiet", "--manifest-path",
                  "benchmark/Cargo.toml"]):
        if subprocess.run(argv, cwd=cwd, env=child_env()).returncode != 0:
            sys.exit(f"{side}: {' '.join(argv)} failed")


def run_once(command, cwd, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seconds", str(seconds),
                      "--trace", "1" if trace else "0"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    done = subprocess.run(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{' '.join(argv)} (in {cwd}) exited {done.returncode} without a result:\n"
                 f"{done.stdout}\n{done.stderr}")
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def worse_by(parent, change, better):
    """How much worse the change is, as a fraction of the parent (negative
    when it is better)."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--claim", action="append", default=[])
    ap.add_argument("--workdir")
    ap.add_argument("--out")
    args = ap.parse_args()

    root = git("rev-parse", "--show-toplevel")
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    claims = {}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        claims.setdefault(workload, []).append(metric)

    parent_rev = git("rev-parse", "--short", args.parent, cwd=root)
    workdir = args.workdir or tempfile.mkdtemp(prefix="dwc-ab-")
    parent_dir = os.path.join(workdir, f"parent-{parent_rev}")
    export(parent_rev, root, parent_dir)
    sides = {"parent": parent_dir, "change": root}
    for side, cwd in sides.items():
        build(side, cwd)

    ok = True
    report = {"parent": parent_rev, "pairs": args.pairs, "seed": args.seed,
              "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        print(f"\n=== {workload}: {args.pairs} alternating pairs, {seconds} s windows ===",
              flush=True)
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                seed = None if args.seed is None else args.seed + pair
                runs[side].append(run_once(command, sides[side], workload, seed,
                                           seconds, args.trace))
            p, c = runs["parent"][-1]["metrics"], runs["change"][-1]["metrics"]
            cells = [f"{name} {p[name]['value']:.4g}/{c[name]['value']:.4g}"
                     f" ({c[name]['value'] / p[name]['value']:.3f}x)"
                     for name in p if name in c and p[name]["value"]]
            print(f"pair {pair:2} [{order[0]} first]: " + "  ".join(cells), flush=True)

        names = [n for n in runs["parent"][0]["metrics"] if n in runs["change"][0]["metrics"]]
        summary = {}
        print(f"--- {workload}: median [q1–q3], parent → change ---")
        for name in names:
            pv = [r["metrics"][name]["value"] for r in runs["parent"]]
            cv = [r["metrics"][name]["value"] for r in runs["change"]]
            (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(pv), quartiles(cv)
            spec = bounds.get(name) or per_layer.get(name) or {}
            better = spec.get("better", "lower")
            verdict = ""
            worse = worse_by(pmed, cmed, better)
            if name in bounds and not args.trace:
                passed = worse <= spec["bound"]
                ok &= passed
                verdict = f"{'pass' if passed else 'FAIL'} (bound {spec['bound']:.0%})"
            line = (f"  {name:42} {pmed:.4g} [{pq1:.4g}–{pq3:.4g}] → {cmed:.4g} "
                    f"[{cq1:.4g}–{cq3:.4g}]  {-worse:+.1%} better  {verdict}")
            entry = {"parent": pv, "change": cv, "better": better, "worse_by": worse}
            if name in claims.get(workload, []):
                won = sum(worse_by(p, c, better) < 0 for p, c in zip(pv, cv))
                margin = abs(cmed - pmed) > (pq3 - pq1) and worse < 0
                need = -(-9 * len(pv) // 10)
                held = won >= need and margin
                ok &= held
                line += (f"\n  {'':42} claim: better in {won}/{len(pv)} pairs (need {need}), "
                         f"median gain {'>' if margin else '<='} parent IQR: "
                         f"{'HOLDS' if held else 'FAILS'}")
                entry["claim_holds"] = held
            print(line)
            summary[name] = entry
        shares = {}
        for side in ("parent", "change"):
            attempted = sum(r.get("attempted", 0) for r in runs[side])
            failed = sum(r.get("failed", 0) for r in runs[side])
            shares[side] = failed / attempted if attempted else 0.0
        incorrect = sum(not r.get("correct", True) for r in runs["change"])
        share_ok = shares["change"] <= shares["parent"] and incorrect == 0
        ok &= share_ok
        print(f"  failed-op share: parent {shares['parent']:.4%}, change {shares['change']:.4%}"
              f"; change runs failing their checks: {incorrect}  "
              f"{'pass' if share_ok else 'FAIL'}")
        report["workloads"][workload] = {"metrics": summary, "failed_share": shares}

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    if not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"\nverdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
