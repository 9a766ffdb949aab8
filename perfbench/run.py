#!/usr/bin/env python3
"""SandTable benchmark: exploration rate, time to a confirmed bug and
conformance throughput, with a per-layer trace taken from outside the library.

Run from the repository root:

  python3 perfbench/run.py --workload explore-sym3 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload conform --seed 1 --seconds 20 --trace 1
  python3 perfbench/run.py --steadiness --runs 10 --sets 2 --out perfbench/STEADINESS.md

The harness builds perfbench/bench.exe with dune, then starts it as fresh
processes: repetitions of the workload's fixed work until --seconds is used
up, with set-up-only processes (setup_s) between them. Every metric is the
median over those processes; times are scaled by the rate of a calibration
kernel that runs inside the repetitions (see throughput()). README.md has
the rationale. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics of BENCHMARK.json and --trace 1 the per-layer ones.
Exit code 0 means every correctness check passed; 1 means a check failed or
the harness could not build or run.
"""

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
STARTREF = os.path.join(ROOT, "_build", "default", "perfbench", "startref.exe")
WORKLOADS = ["explore-sym3", "explore-ws2", "bug-hunt", "conform"]
CALIB_NOMINAL_PER_S = 3000000.0  # calibration units per CPU-second, nominal
STARTREF_NOMINAL_S = 0.002  # startref.exe's CPU time, nominal
SETUP_BATCH = 5  # set-up processes between two repetitions
SETUP_MIN = 21
CHILD_TIMEOUT_S = 150

# The layers each workload is expected to spend most of its time in.
PREDICTED = {
    "explore-sym3": ["symmetry"],
    "explore-ws2": ["systems.next", "explorer.self", "ws_explorer.steal_wait"],
    "bug-hunt": ["systems.invariant", "replay.self", "engine"],
    "conform": ["engine", "conformance.self"],
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe",
             "./perfbench/startref.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        raise BenchError("cannot run dune: %s" % e)
    if proc.returncode != 0 or not (os.path.exists(EXE) and os.path.exists(STARTREF)):
        raise BenchError("build failed (dune exit %d)" % proc.returncode)


def run_child(*args):
    """Run one bench.exe process (startref.exe without arguments). Returns
    its parsed last output line, with the process's peak resident set added
    from wait4."""
    argv = [EXE] + [str(a) for a in args] if args else [STARTREF]
    proc = subprocess.Popen(argv, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = communicate_raw(proc)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (
            " ".join(argv[1:]), proc.returncode, err.decode(errors="replace")[-500:]))
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % " ".join(argv[1:]))
    out = json.loads(lines[-1])
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return out


def communicate_raw(proc):
    """Read both pipes to EOF without reaping the child, so wait4 can still
    collect its resource usage. Bounded by CHILD_TIMEOUT_S."""
    sel = selectors.DefaultSelector()
    bufs = {proc.stdout: [], proc.stderr: []}
    for f in bufs:
        sel.register(f, selectors.EVENT_READ)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while sel.get_map():
        left = deadline - time.monotonic()
        if left <= 0:
            proc.kill()
            raise BenchError("child timed out after %ds" % CHILD_TIMEOUT_S)
        for key, _ in sel.select(timeout=left):
            chunk = os.read(key.fd, 65536)
            if chunk:
                bufs[key.fileobj].append(chunk)
            else:
                sel.unregister(key.fileobj)
    sel.close()
    proc.stdout.close()
    proc.stderr.close()
    return b"".join(bufs[proc.stdout]), b"".join(bufs[proc.stderr])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def measure_setup(workload, seed, n, samples):
    """Set-up samples, each a pair: a set-up process's own CPU time from its
    start to the end of set-up (so neither the parent's fork and exec nor
    the time the host keeps the process from running counts), and the CPU
    time of the start-up reference run right after it."""
    for _ in range(n):
        samples.append((run_child("setup", workload, seed)["setup_cpu_s"],
                        run_child()["ref_cpu_s"]))


def setup_s(samples):
    """The median set-up time over the median reference time, scaled to the
    reference's nominal time. Start-up and page-fault costs on the host
    drift by a third within minutes, in step for both processes."""
    return (median([s for s, _ in samples]) / median([r for _, r in samples])
            * STARTREF_NOMINAL_S)


def speed(rep):
    """How fast the machine ran during the repetition, relative to the
    nominal speed: the calibration kernel's rate in it over
    CALIB_NOMINAL_PER_S."""
    return rep["calib_units"] / rep["calib_cpu_s"] / CALIB_NOMINAL_PER_S


def native(workload, rep):
    """The paper's statistics for one repetition, over wall time."""
    if workload.startswith("explore"):
        return {"distinct_per_s": rep["distinct"] / rep["wall_s"]}
    if workload == "conform":
        return {"events_per_s": rep["events"] / rep["wall_s"]}
    ttb = rep["ttb_s"]
    return {"ttb_p50_s": statistics.median(ttb), "ttb_total_s": sum(ttb)}


def offered_s(rep):
    """CPU time the machine offered the repetition's library calls: wall
    time times worker domains, minus the time the hypervisor stole from
    runnable virtual CPUs (/proc/stat) meanwhile, and never less than the
    CPU time the calls used. Time a worker spends sleeping or blocked while
    idle counts, so a change that starves a work-stealing worker or
    serialises work behind a lock lowers the rate; time the host takes away
    does not. (The steal figure covers every CPU, so on one worker it can
    overstate; the CPU time used is the floor.)"""
    return max(rep["cpu_s"], rep["workers"] * rep["wall_s"] - rep["steal_s"])


def throughput(workload, rep):
    """The gated rate: the workload's work units per offered CPU-second,
    scaled to the nominal machine speed.

    Offered CPU time, not wall time: on a 2-vCPU virtual machine whose
    hypervisor steals much of the second vCPU for minutes at a time, two
    explore-ws2 repetitions took 9.04 s and 5.72 s of wall time (6.03 s and
    0.73 s of steal) but about the same CPU time.

    Scaled: the same machine also runs everything up to 1.7x faster or
    slower from one second to the next, largely in step across all code.
    The calibration kernel runs between the operations of every repetition
    and during its explorations; speed() divides that common factor out."""
    if workload.startswith("explore"):
        units = rep["distinct"]
    elif workload == "conform":
        units = rep["events"]
    else:
        units = len(rep["ttb_s"])
    return units / (offered_s(rep) * speed(rep))


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def rep(self, out):
        self.attempted += out["ops"]
        self.failed += out["failed"]
        self.errors += out["errors"]

    def require(self, ok, msg):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(msg)


def run_reps(workload, seed, seconds, trace, checks):
    """Repetitions until the next one would overrun --seconds. With trace,
    untraced and traced repetitions alternate (at least one of each).
    Without, set-up samples are taken between repetitions, so they see the
    same machine conditions as the repetitions do."""
    untraced, traced, setups = [], [], []
    start = time.monotonic()
    while True:
        if not trace:
            measure_setup(workload, seed, SETUP_BATCH, setups)
        mode = "traced" if trace and len(traced) < len(untraced) else "run"
        out = run_child(mode, workload, seed)
        checks.rep(out)
        (traced if mode == "traced" else untraced).append(out)
        n = len(untraced) + len(traced)
        elapsed = time.monotonic() - start
        if trace and not traced:
            continue
        if elapsed + elapsed / n > seconds:
            if not trace:
                measure_setup(workload, seed, max(SETUP_BATCH, SETUP_MIN - len(setups)),
                              setups)
            return untraced, traced, setups


def check_reps(workload, seed, reps, checks):
    # the same seed must give the same work in every repetition
    for key in ("distinct", "events", "ops"):
        values = {r[key] for r in reps}
        checks.require(len(values) == 1,
                       "%s differs between repetitions: %s" % (key, sorted(values)))
    if workload == "explore-ws2":
        seq = run_child("seq", workload, seed)
        for r in reps:
            checks.require(
                (r["distinct"], r["generated"]) == (seq["distinct"], seq["generated"]),
                "work-stealing distinct/generated %d/%d != sequential %d/%d" % (
                    r["distinct"], r["generated"], seq["distinct"], seq["generated"]))


def layer_table(traced, untraced):
    metrics = {k: median([t["layers"][k] for t in traced]) for k in traced[0]["layers"]}
    overhead = median([t["wall_s"] for t in traced]) / median([u["wall_s"] for u in untraced]) - 1
    metrics["trace.overhead"] = overhead
    self_s = {k: median([t["layer_self_s"][k] for t in traced])
              for k in traced[0]["layer_self_s"]}
    return metrics, self_s


def report_layers(workload, metrics, self_s, traced):
    wall = median([t["wall_s"] for t in traced])
    workers = traced[0]["workers"]
    print("per-layer self time, %s (median of %d traced repetitions, wall %.3f s x %d domain%s):"
          % (workload, len(traced), wall, workers, "s" if workers > 1 else ""))
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    for name, s in ranked:
        if s > 0:
            print("  %-26s %9.4f s  %5.1f%%" % (name, s, 100 * s / (wall * workers)))
    print("  trace.coverage %.3f, trace.overhead %+.3f"
          % (metrics["trace.coverage"], metrics["trace.overhead"]))
    top = ranked[0][0]
    pred = PREDICTED[workload]
    verdict = "confirmed" if top in pred else "DISCREPANCY"
    print("  predicted dominant layer: %s; measured: %s -> %s"
          % (" / ".join(pred), top, verdict))
    print("per-layer metrics, %s:" % workload)
    for name, v in metrics.items():
        print("  %-36s %.6g" % (name, v))


def run_benchmark(args):
    build()
    checks = Checks()
    result = {}
    untraced, traced, setups = run_reps(args.workload, args.seed, args.seconds,
                                     args.trace == 1, checks)
    check_reps(args.workload, args.seed, untraced + traced, checks)
    if args.trace == 0:
        nat = {}
        for rep in untraced:
            for k, v in native(args.workload, rep).items():
                nat.setdefault(k, []).append(v)
        print("%s: %d repetitions, %d set-up samples, cores %d, workers %d"
              % (args.workload, len(untraced), len(setups), untraced[0]["cores"],
                 untraced[0]["workers"]))
        units = {"distinct_per_s": "1/s", "events_per_s": "1/s",
                 "ttb_p50_s": "s", "ttb_total_s": "s"}
        for k, vs in nat.items():
            print("  %-16s %12.6g %s" % (k, median(vs), units[k]))
        speeds = [speed(r) for r in untraced]
        print("  per repetition: offered CPU %.3f s, used CPU %.3f s, steal %.3f s, "
              "machine speed %.3f x nominal; set-up CPU %.6f s, reference %.6f s"
              % (median([offered_s(r) for r in untraced]),
                 median([r["cpu_s"] for r in untraced]),
                 median([r["steal_s"] for r in untraced]), median(speeds),
                 median([s for s, _ in setups]), median([r for _, r in setups])))
        result = {
            "throughput_norm": {"value": median([throughput(args.workload, r) for r in untraced]),
                                "unit": "1/s"},
            "setup_s": {"value": setup_s(setups), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in untraced]), "unit": "MB"},
        }
        for k, v in result.items():
            print("  %-16s %12.6g %s" % (k, v["value"], v["unit"]))
    else:
        metrics, self_s = layer_table(traced, untraced)
        report_layers(args.workload, metrics, self_s, traced)
        units = per_layer_units()
        result = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    for e in checks.errors:
        log("check failed: " + e)
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result}))
    return 0 if correct else 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def per_layer_units():
    return {m["name"]: m["unit"] for m in load_spec()["per_layer"]}


# ---------------------------------------------------------------------------
# Steadiness self-check
# ---------------------------------------------------------------------------

def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def run_self(workload, seed, seconds, trace):
    """One run of this command in a process of its own; its output lines."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.terminate()  # lets the run stop its own child first
        proc.wait()
        raise
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("run %s seed %d trace %d failed" % (workload, seed, trace))
    return lines


def steadiness(args):
    """Every workload, --runs times per set, workloads interleaved; then one
    traced run per workload. Writes the summary (and --out) as Markdown."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {}  # (set, workload, metric) -> [values]
    for s in range(args.sets):
        for i in range(args.runs):
            for w in WORKLOADS:
                seed = 1000 * (s + 1) + i + 1
                res = json.loads(run_self(w, seed, seconds, 0)[-1])
                for m, v in res["metrics"].items():
                    values.setdefault((s, w, m), []).append(v["value"])
                log("set %d run %d %s: %s" % (s + 1, i + 1, w, json.dumps(
                    {m: round(v["value"], 6) for m, v in res["metrics"].items()})))
    lines = ["# Steadiness self-check", "",
             "Output of `python3 perfbench/run.py --steadiness --runs %d --sets %d`"
             " on a machine with %d cores: %d s per run, seeds 1000 * set + run, "
             "workloads interleaved. spread = (q3 - q1) / median, also as a share "
             "of the metric's bound." % (args.runs, args.sets, os.cpu_count(), seconds), "",
             "| set | workload | metric | median | q1 | q3 | spread | bound | spread/bound |",
             "|---|---|---|---|---|---|---|---|---|"]
    ok = True
    margin = True  # every spread below a third of its bound
    rows = dict(values)
    if args.sets > 1:
        for (s, w, m), vs in values.items():
            rows.setdefault(("all", w, m), []).extend(vs)
    for (s, w, m), vs in sorted(rows.items(), key=lambda kv: (kv[0][1], kv[0][2], str(kv[0][0]))):
        q1, med, q3, sp = spread(vs)
        b = bounds[m]["bound"]
        if s != "all":
            ok = ok and sp <= b
            margin = margin and sp < b / 3
        lines.append("| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | %.2f |"
                     % (s if s == "all" else s + 1, w, m, med, q1, q3, sp, b, sp / b))
    if args.sets > 1:
        lines += ["", "Second set's median against the first's (positive = worse):", "",
                  "| workload | metric | first | second | worse by | bound |",
                  "|---|---|---|---|---|---|"]
        for w in WORKLOADS:
            for m, mb in bounds.items():
                a = statistics.median(values[(0, w, m)])
                b = statistics.median(values[(1, w, m)])
                worse = (a - b) / a if mb["better"] == "higher" else (b - a) / a
                ok = ok and worse <= mb["bound"]
                lines.append("| %s | %s | %.6g | %.6g | %+.4f | %.2f |"
                             % (w, m, a, b, worse, mb["bound"]))
    lines += ["", "Verdict: %s; spreads %s a third of their bound."
              % ("steady" if ok else "NOT steady", "all below" if margin else "NOT all below"),
              "", "## Layer tables", "",
              "One traced run per workload (`--trace 1 --seed 7`): self time per layer, "
              "trace.coverage, trace.overhead, the predicted dominant layer against the "
              "measured one, and every per-layer metric.", ""]
    for w in WORKLOADS:
        lines += ["```"] + run_self(w, 7, seconds, 1)[:-1] + ["```", ""]
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    return 0 if ok else 1


def main():
    # SIGTERM unwinds like an error, so run_child kills its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true",
                   help="run every workload repeatedly and report the spread of each "
                        "end-to-end metric against its bound")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--out", help="also write the steadiness summary here")
    args = p.parse_args()
    try:
        if args.steadiness:
            return steadiness(args)
        if not args.workload:
            p.error("--workload is required")
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return run_benchmark(args)
    except BenchError as e:
        log("benchmark error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
