#!/usr/bin/env python3
"""Out-of-process benchmark of treelattice.

Run from the repository root:

  python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0
      One run.  Builds the shipped binary and the load generator from
      source with dune, then runs perfbench/tlbench.ml, whose last stdout
      line is the JSON result.

  python3 perfbench/run.py sweep --out DIR [--runs 10]
      Runs every workload with seeds 1..runs for BENCHMARK.json's
      run_seconds, appends each JSON result to DIR/<workload>.jsonl and
      prints the report below for DIR.

  python3 perfbench/run.py report DIR
      Per workload and end-to-end metric: median, quartiles and spread
      (interquartile range over median) against the metric's bound.

  python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR
      Both sides' medians and quartiles, per workload and end-to-end
      metric.  A move beyond the metric's bound in the worse direction is
      flagged REGRESSION (better: "improved"); a metric whose spread on
      either side is wider than its bound is "unresolved" unless every
      change run reads better than every parent run.  Each side's failed
      and attempted operations are printed per workload; more failed
      operations on the change side, or any change run that is not
      correct, is flagged REGRESSION whatever correct_ratio shows.

Workloads, metrics and bounds are read from BENCHMARK.json.
"""

import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(ROOT, ".perfbench")
PROGRAM = os.path.join(ROOT, "_build", "default", "bin", "treelattice_cli.exe")
TLBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "tlbench.exe")
RUN_TIMEOUT_S = 170

# The program serves from one domain, and the roadmap measures single-core
# efficiency.  Each run is pinned to one CPU, the load generator and the
# program alike: spread over two CPUs, every round trip waits on cross-CPU
# wake-ups, and under host contention that made p99 swing twofold from run
# to run.
CPU = min(os.sched_getaffinity(0))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spec():
    with open(BENCH) as f:
        return json.load(f)


def build():
    """Build the program and the load generator from source.  Dune's shared
    cache is off so the build reads and writes only inside the checkout."""
    for need in ("dune-project", "bin/treelattice_cli.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the repository root (%s is missing)" % need)
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./bin/treelattice_cli.exe",
         "./perfbench/tlbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("dune build failed")


def run_once(workload, seed, seconds, trace, quiet=False):
    """One run of tlbench.exe in its own process group, on one CPU.  Returns
    (exit code, stdout text).  The whole group is killed if the run
    overstays."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [TLBENCH, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--program", PROGRAM, "--work", WORK]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL if quiet else None,
                            text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {CPU}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def single(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument %r" % flag)
        args[flag] = next(it, None)
    if None in args.values() or len(args) != 4:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    names = [w["name"] for w in spec()["workloads"]]
    if args["--workload"] not in names:
        fail("unknown workload %r (%s)" % (args["--workload"], ", ".join(names)))
    build()
    code, out = run_once(args["--workload"], int(args["--seed"]), int(args["--seconds"]),
                         int(args["--trace"]))
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


# --- result sets -------------------------------------------------------------

def load_set(directory):
    """{workload: [result, ...]} from DIR/<workload>.jsonl."""
    sets = {}
    for w in spec()["workloads"]:
        path = os.path.join(directory, w["name"] + ".jsonl")
        if os.path.exists(path):
            with open(path) as f:
                sets[w["name"]] = [json.loads(line) for line in f if line.strip()]
    return sets


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def summary(vals):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def report(directory):
    sets = load_set(directory)
    metrics = spec()["end_to_end"]
    for w, results in sets.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print("%s: %d runs, %d of %d operations failed (error_rate %.3g)"
              % (w, len(results), failed, attempted, failed / max(1, attempted)))
        for m in metrics:
            vals = values(results, m["name"])
            if not vals:
                continue
            med, q1, q3, spread = summary(vals)
            note = "" if spread <= m["bound"] / 3 else ("  above bound/3" if spread <= m["bound"]
                                                        else "  ABOVE BOUND")
            print("  %-14s %14.6g %-6s q1 %12.6g  q3 %12.6g  spread %6.2f%%  bound %4.0f%%%s"
                  % (m["name"], med, m["unit"], q1, q3, 100 * spread, 100 * m["bound"], note))


def operations(results):
    """(failed, attempted, incorrect runs, runs) over a workload's results."""
    return (sum(r["failed"] for r in results), sum(r["attempted"] for r in results),
            sum(1 for r in results if not r["correct"]), len(results))


def compare(parent_dir, change_dir):
    parent, change = load_set(parent_dir), load_set(change_dir)
    for w in [w["name"] for w in spec()["workloads"]]:
        if w not in parent or w not in change:
            continue
        print(w)
        pt, ct = operations(parent[w]), operations(change[w])
        verdict = "REGRESSION" if ct[0] > pt[0] or ct[2] > 0 else "ok"
        print("  %-14s parent %d of %d failed, %d of %d runs incorrect  "
              "change %d of %d failed, %d of %d runs incorrect  %s"
              % (("operations",) + pt + ct + (verdict,)))
        for m in spec()["end_to_end"]:
            a, b = values(parent[w], m["name"]), values(change[w], m["name"])
            if not a or not b:
                continue
            pa, pb = summary(a), summary(b)
            lower = m["better"] == "lower"
            # Relative move of the change's median, positive = worse.
            move = (pb[0] - pa[0]) / abs(pa[0]) if pa[0] else 0.0
            worse = move if lower else -move
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if max(pa[3], pb[3]) > m["bound"] and not all_better:
                verdict = "unresolved (spread wider than bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            elif -worse > m["bound"]:
                verdict = "improved"
            else:
                verdict = "within bound"
            print("  %-14s parent %12.6g [%.6g, %.6g]  change %12.6g [%.6g, %.6g]  %+6.2f%%  %s"
                  % (m["name"], pa[0], pa[1], pa[2], pb[0], pb[1], pb[2], 100 * move, verdict))


def sweep(argv):
    out, runs, seconds = None, 10, spec()["run_seconds"]
    it = iter(argv)
    for flag in it:
        val = next(it, None)
        if flag == "--out":
            out = val
        elif flag == "--runs":
            runs = int(val)
        else:
            fail("unknown argument %r" % flag)
    if out is None:
        fail("usage: run.py sweep --out DIR [--runs N]")
    build()
    os.makedirs(out, exist_ok=True)
    for w in [w["name"] for w in spec()["workloads"]]:
        for seed in range(1, runs + 1):
            code, text = run_once(w, seed, seconds, 0, quiet=True)
            lines = text.strip().splitlines()
            if code != 0 or not lines:
                print("%s seed %d: exit %d" % (w, seed, code), file=sys.stderr)
                continue
            with open(os.path.join(out, w + ".jsonl"), "a") as f:
                f.write(lines[-1] + "\n")
            print("%s seed %d: %s" % (w, seed, lines[-1]), file=sys.stderr)
    report(out)


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["sweep"]:
        sweep(argv[1:])
    elif argv[:1] == ["report"] and len(argv) == 2:
        report(argv[1])
    elif argv[:1] == ["compare"] and len(argv) == 3:
        compare(argv[1], argv[2])
    else:
        single(argv)


if __name__ == "__main__":
    main()
