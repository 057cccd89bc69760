#!/usr/bin/env python3
"""One command for the repository's benchmark.

Builds the aprof CLI and the benchmark binary from source with dune,
runs a workload for a window of seconds, checks its outputs and prints
the result.  Run from the repository root:

  python3 perfbench/run.py --workload bs-offline --seed 1 --seconds 30 --trace 0
      one workload; the last line of stdout is the JSON result
  python3 perfbench/run.py --workload all --seed 1
      every workload, then one row per workload with every metric
  python3 perfbench/run.py --seed 7919
      every workload on the held-out seed, 7919, which was kept out of
      tuning; exits 1 unless all checks pass
  python3 perfbench/run.py --report --seed 1
      the traced run of every workload: per-layer tables, tracing
      overhead, and the coverage and layer-separation checks

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bs-offline", "mysql-offline", "serve-mysql"]
OFFLINE = ["bs-offline", "mysql-offline"]
OUT_DIR = "perfbench/out"
EXE = "_build/default/perfbench/perfbench.exe"
APROF = "_build/default/bin/aprof.exe"
RUN_TIMEOUT_S = 170

# The figures of the one-row-per-workload table, in print order, with
# the workloads that have them.
ROW_METRICS = [
    ("setup_s", "s", WORKLOADS),
    ("record_mev_s", "Mev/s", OFFLINE),
    ("replay_mev_s", "Mev/s", OFFLINE),
    ("replay_par_mev_s", "Mev/s", OFFLINE),
    ("tools_mev_s", "Mev/s", OFFLINE),
    ("fit_s", "s", ["mysql-offline"]),
    ("pipeline_s", "s", OFFLINE),
    ("ingest_mev_s", "Mev/s", ["serve-mysql"]),
    ("trace_ms.p50", "ms", ["serve-mysql"]),
    ("trace_ms.p90", "ms", ["serve-mysql"]),
    ("snapshot_ms.p50", "ms", ["serve-mysql"]),
    ("snapshot_ms.p90", "ms", ["serve-mysql"]),
    ("peak_mem_mb", "MB", WORKLOADS),
    ("error_rate", "fraction", WORKLOADS),
]


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("perfbench: no dune-project at %s; run from a full checkout" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe", "./bin/aprof.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("perfbench: build failed: %s" % e)
    if r.returncode != 0:
        fail("perfbench: build failed")


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def run_one(workload, seed, seconds, trace, sha):
    """Run the benchmark binary once; returns (stdout, parsed result)."""
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    cmd = [os.path.join(ROOT, EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", OUT_DIR,
           "--aprof", APROF, "--git-sha", sha]
    # A process group of its own, so a timeout also stops the daemon child.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if p.returncode != 0:
        sys.stderr.write(out)
        fail("perfbench: %s exited with code %d" % (workload, p.returncode))
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(out)
        fail("perfbench: %s printed no result" % workload)
    return out, result


def validate(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares;
    end-to-end values must be positive finite numbers."""
    e2e, per_layer = declared_metrics()
    names = per_layer if trace else e2e
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(names):
        fail("perfbench: metrics %s differ from BENCHMARK.json %s" % (got, names))
    if not trace:
        for n in names:
            v = result["metrics"][n]["value"]
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
                fail("perfbench: end-to-end metric %s is %r" % (n, v))


def row_file(workload, seed, trace):
    path = os.path.join(ROOT, OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


def print_rows(rows):
    """One row per workload: provenance, then every figure by name and unit."""
    for row in rows:
        w = row["workload"]
        figs = dict(row["per_layer"])
        figs.update(row["end_to_end"])
        cells = []
        for name, unit, has in ROW_METRICS:
            v = figs.get(name) if w in has else None
            cells.append("%s=%s %s" % (name, "n/a" if v is None else "%.4g" % v, unit))
        print("%s [seed=%d scale=%d events=%d host_cores=%d %s ocaml=%s git_sha=%s] %s"
              % (w, row["seed"], row["scale"], row["events"], row["host_cores"],
                 row["host"], row["ocaml"], row["git_sha"], "  ".join(cells)))


def report_checks(rows):
    """The traced-run gates: the layer self times of the traced work cover
    >= 90% of each stage's untraced time, and the workloads separate the
    layers."""
    ok = True

    def gate(cond, msg):
        nonlocal ok
        print("%s %s" % ("PASS" if cond else "FAIL", msg))
        ok = ok and cond

    by = {r["workload"]: r["per_layer"] for r in rows}
    stages = [("record", "record_mev_s"), ("replay", "replay_mev_s"), ("fit", "fit_s"),
              ("serve", "ingest_mev_s")]
    for w, fig in by.items():
        print("%s: tracing overhead %+.1f%%" % (w, 100 * fig.get("trace.overhead", 0.0)))
        for stage, witness in stages:
            if fig.get(witness, 0.0) <= 0:
                continue
            # Stages shorter than 10 ms are below what the clock resolves.
            if stage == "fit" and fig["fit_s"] < 0.01:
                print("skip %s coverage.fit: fit takes %.2g s" % (w, fig["fit_s"]))
                continue
            c = fig.get("coverage." + stage, 0.0)
            gate(c >= 0.9, "%s coverage.%s = %.3f (>= 0.9)" % (w, stage, c))
    if "mysql-offline" in by and "bs-offline" in by:
        m, b = by["mysql-offline"], by["bs-offline"]
        gate(m["fit.pipeline_share"] >= 0.5,
             "fit share of pipeline_s on mysql-offline = %.3f (>= 0.5)" % m["fit.pipeline_share"])
        gate(b["fit.pipeline_share"] < 0.1,
             "fit share of pipeline_s on bs-offline = %.3g (< 0.1)" % b["fit.pipeline_share"])
        gate(m["encode.record_share"] > b["encode.record_share"],
             "encode share of record: mysql-offline %.3f > bs-offline %.3f"
             % (m["encode.record_share"], b["encode.record_share"]))
    serve = ["ingest_mev_s", "serve.traces", "serve.events", "client.write_ms"]
    for w, fig in by.items():
        nonzero = [n for n in serve if fig.get(n, 0.0) != 0]
        if w == "serve-mysql":
            gate(len(nonzero) == len(serve), "%s serve-layer metrics non-zero" % w)
        else:
            gate(not nonzero, "%s serve-layer metrics zero (%s)" % (w, ", ".join(nonzero) or "none"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--report", action="store_true",
                    help="traced run of every workload with the ledger checks")
    args = ap.parse_args()
    build()
    sha = git_sha()
    if args.workload != "all" and not args.report:
        out, result = run_one(args.workload, args.seed, args.seconds, args.trace, sha)
        validate(result, args.trace)
        sys.stdout.write(out)
        return 0
    trace = 1 if args.report else args.trace
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    rows, attempted, failed = [], 0, 0
    for w in workloads:
        out, result = run_one(w, args.seed, args.seconds, trace, sha)
        validate(result, trace)
        sys.stdout.write(out)
        attempted += result["attempted"]
        failed += result["failed"]
        rows.append(row_file(w, args.seed, trace))
    print()
    print_rows(rows)
    ok = failed == 0
    if args.report:
        ok = report_checks(rows) and ok
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "seed": args.seed}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
