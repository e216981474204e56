#!/usr/bin/env python3
"""Outside-in benchmark of the fdgm simulator (perf/README.md documents it).

  python3 perf/run.py [--seed S] [--smoke] [--out FILE]
      Builds perf/ into build-perf/, runs every workload (3 timed passes in
      alternating order, then one trace-host and one trace-sim pass over the
      first half of each workload's replicas), checks correctness, prints
      every metric by name with its unit and writes one JSON result file.

  python3 perf/run.py --workload W --seed S --seconds N --trace 0|1
      One workload.  Prints one JSON line last: with --trace 0 the
      end-to-end metrics (timed passes repeated while N seconds allow, at
      least 3), with --trace 1 the per-layer metrics.

  python3 perf/run.py compare A.json B.json
      Per (metric, workload): both values, the quartiles of their timed
      passes, the bound and a verdict.

Exit codes: 0 correct, 1 a correctness check failed, 2 usage or build error.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import stats

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
BUILD = os.path.join(ROOT, "build-perf")
BINARY = os.path.join(BUILD, "fdgm_perf")
DEFAULT_OUT = os.path.join(BUILD, "result.json")

STACKS = ("fd", "gm")
TIMED_PASSES = 3       # full mode; also the minimum of the single-workload mode
MAX_TIMED_PASSES = 9   # single-workload mode ceiling
PASS_TIMEOUT_S = 150

# End-to-end metrics that are not in BENCHMARK.json: each is 0 or undefined
# on some workload (fail_frac without loss of messages, outage_ms without a
# crash or storm), and a benchmark metric must never be 0.  They are
# computed, printed, written to the result file and compared all the same.
# The outage bounds are three times the spread measured over eight seeds on
# crash_n7: 1.6% for FD, 13.9% for GM, whose gap depends on where the
# sequencer crash falls among the messages in flight.
EXTRA_END_TO_END = [
    {"name": f"{s}.fail_frac", "unit": "ratio", "better": "lower", "bound": 0.001, "absolute": True}
    for s in STACKS
] + [
    {"name": "fd.outage_ms", "unit": "ms", "better": "lower", "bound": 0.05},
    {"name": "gm.outage_ms", "unit": "ms", "better": "lower", "bound": 0.4},
]


class Failure(Exception):
    """An infrastructure error: the benchmark cannot produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------------- build

def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise Failure(f"{needed} is missing next to perf/: nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PERF, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "fdgm_perf", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise Failure("build failed: " + " ".join(cmd))


def workload_replicas():
    out = subprocess.run([BINARY, "--list"], capture_output=True, text=True, check=True).stdout
    return {name: int(k) for name, k in (line.split() for line in out.splitlines())}


# ------------------------------------------------------------------ passes

def run_pass(workload, seed, kind, replicas=None, smoke=False):
    """Runs fdgm_perf once and returns its record (violations included)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--pass", kind]
    if replicas is not None:
        cmd += ["--replicas", str(replicas)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise Failure(f"{workload} seed {seed} {kind}: fdgm_perf exited {proc.returncode}: "
                      f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def problems(workload, records):
    """Oracle violations plus any digest or event-count mismatch between passes."""
    out = []
    first_seen = {}
    for rec in records:
        for stack in STACKS:
            for r in rec["stacks"][stack]:
                where = f"{workload} seed {r['seed']} {stack} ({rec['pass']})"
                out += [f"{where}: {v}" for v in r["violations"]]
                got = (r["digest"], r["events"])
                ref = first_seen.setdefault((stack, r["seed"]), (got, rec["pass"]))
                if ref[0] != got:
                    out.append(f"{where}: digest/events {got} differ from the "
                               f"{ref[1]} pass {ref[0]}")
    return out


def digest(record):
    """One digest over every replica's delivery-log digest and event count."""
    items = [(s, r["seed"], r["digest"], r["events"]) for s in STACKS for r in record["stacks"][s]]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def offered(record):
    """(attempted, failed): broadcasts offered, and those delivered nowhere or shed."""
    reps = [r for s in STACKS for r in record["stacks"][s]]
    return (sum(r["generated"] + r["shed"] for r in reps),
            sum(r["undelivered"] + r["shed"] for r in reps))


# ----------------------------------------------------------------- metrics

def end_to_end(timed):
    """(metric name -> {"value", "passes"}, latency sample count per stack).

    Simulated metrics come from the first pass (the digests prove every
    pass identical).  A host metric's value sums, over the replicas, each
    replica's fastest timed pass: the simulated work is identical in every
    pass, and interference from other processes on a shared host only ever
    adds time, in bursts that slow single replicas or whole passes.
    "passes" holds the per-pass sums.
    """
    first = timed[0]
    out, samples = {}, {}

    def simulated(name, v):
        out[name] = {"value": v, "passes": [v] * len(timed)}

    for s in STACKS:
        reps = first["stacks"][s]
        lat = [x for r in reps for x in r["lat"]]
        samples[s] = len(lat)
        for pct in (50, 99):
            try:
                simulated(f"{s}.lat_p{pct}_ms", stats.percentile(lat, pct))
            except ValueError:
                simulated(f"{s}.lat_p{pct}_ms", None)  # too few samples (--smoke)
        simulated(f"{s}.fail_frac", stats.fail_frac(
            sum(r["generated"] for r in reps), sum(r["undelivered"] for r in reps),
            sum(r["shed"] for r in reps)))
        probes = first["outage_probes_ms"]
        gaps = [g for r in reps for g in stats.outage_gaps(r["deliveries"], probes)]
        simulated(f"{s}.outage_ms", sum(gaps) / len(gaps) if gaps else None)

    def host(name, value_of):
        per_pass = [[r for s in STACKS for r in t["stacks"][s]] for t in timed]
        out[name] = {"value": fastest(per_pass, value_of),
                     "passes": [sum(value_of(r) for r in p) for p in per_pass]}

    host("wall_s", lambda r: r["setup_s"] + r["run_s"])
    host("cpu_s", lambda r: r["cpu_s"])
    host("setup_s", lambda r: r["setup_s"])
    rss = [t["peak_rss_mb"] for t in timed]
    out["peak_rss_mb"] = {"value": statistics.median(rss), "passes": rss}
    return out, samples


def drop_samples(record):
    """Frees the per-message arrays of a timed pass whose twin was kept."""
    for s in STACKS:
        for r in record["stacks"][s]:
            r["lat"] = r["deliveries"] = []
    return record


def fastest(passes, value_of):
    """Sum over replicas of each replica's smallest value across passes.

    `passes` holds one replica list per timed pass, in the same order.
    """
    return sum(min(value_of(r) for r in col) for col in zip(*passes))


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(timed, host, sim):
    """Metric name -> value, over the replicas the traced passes ran."""
    half = host["replicas"]
    m = {}
    for s in STACKS:
        t_reps = [t["stacks"][s][:half] for t in timed]
        reps, h_reps, s_reps = t_reps[0], host["stacks"][s], sim["stacks"][s]

        def tot(rs, key):
            return sum(r[key] for r in rs)

        msgs = tot(reps, "delivered")
        run_s = fastest(t_reps, lambda r: r["run_s"])
        walked = tot(s_reps, "walked")
        for cause in s_reps[0]["causes"]:
            m[f"{s}.cause.{cause}_ms"] = ratio(sum(r["causes"][cause] for r in s_reps), walked)
        m[f"{s}.net.frames_per_msg"] = ratio(tot(reps, "frames"), msgs)
        m[f"{s}.net.wire_util"] = ratio(tot(reps, "wire_busy_ms"), tot(reps, "sim_ms"))
        m[f"{s}.transport.retx_per_frame"] = ratio(tot(reps, "retransmits"),
                                                   tot(reps, "data_frames"))
        m[f"{s}.transport.nacks_per_msg"] = ratio(tot(reps, "nacks"), msgs)
        # FD decides one consensus instance per batch at every process; GM
        # runs one per view change, counted as views installed.
        instances = tot(reps, "instances") if s == "fd" else tot(s_reps, "view_changes")
        m[f"{s}.consensus.rounds_per_instance"] = ratio(tot(s_reps, "rounds"), instances)
        m[f"{s}.consensus.round_fails"] = tot(s_reps, "round_fails")
        m[f"{s}.view_changes"] = tot(s_reps, "view_changes")
        m[f"{s}.suspicions"] = tot(s_reps, "suspicions")
        m[f"{s}.drain_ms"] = tot(reps, "drain_ms") / len(reps)
        m[f"{s}.sim.events_per_msg"] = ratio(tot(reps, "events"), msgs)
        m[f"{s}.sim.mev_per_s"] = ratio(tot(reps, "events"), run_s) / 1e6
        wrapped = 0
        for layer in ("abcast", "rbcast", "consensus"):
            self_ns = sum(r["layers"][layer]["self_ns"] for r in h_reps)
            wrapped += self_ns
            m[f"{s}.host.{layer}_ns"] = ratio(self_ns, msgs)
        m[f"{s}.host.other_ns"] = ratio(tot(h_reps, "run_s") * 1e9 - wrapped, msgs)
        m[f"{s}.host.setup_ms"] = fastest(t_reps, lambda r: r["setup_s"]) / len(reps) * 1e3
        m[f"{s}.trace.host_overhead"] = ratio(tot(h_reps, "run_s"), run_s) - 1.0
        m[f"{s}.trace.sim_overhead"] = ratio(tot(s_reps, "run_s"), run_s) - 1.0
        m[f"{s}.obs.walk_s"] = tot(s_reps, "walk_s")
    return m


def run_loop_walls(timed, host, sim):
    """Untraced and traced run-loop wall (s) over the traced replicas."""
    half = host["replicas"]
    timed_reps = [[r for s in STACKS for r in t["stacks"][s][:half]] for t in timed]
    return {"timed": fastest(timed_reps, lambda r: r["run_s"]),
            "trace-host": sum(r["run_s"] for s in STACKS for r in host["stacks"][s]),
            "trace-sim": sum(r["run_s"] for s in STACKS for r in sim["stacks"][s])}


# -------------------------------------------------------------- printing

def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def print_workload(name, e2e, samples, layer, walls, spec):
    print(f"\n== {name}")
    for m in spec["end_to_end"] + EXTRA_END_TO_END if e2e is not None else []:
        metric = e2e[m["name"]]
        line = f"  {m['name']:<22} {fmt(metric['value']):>12} {m['unit']:<6}"
        passes = metric["passes"]
        if len(set(passes)) > 1:
            line += f" passes {', '.join(fmt(v) for v in passes)}"
        if ".lat_" in m["name"]:
            line += f" n={samples[m['name'][:2]]}"
        print(line)
    if layer is not None:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<32} {fmt(layer[m['name']]):>12} {m['unit']}")
        t = walls["timed"]
        print(f"  run-loop wall over the traced replicas: timed {t:.3f} s, "
              f"trace-host {walls['trace-host']:.3f} s ({walls['trace-host'] / t - 1:+.1%}), "
              f"trace-sim {walls['trace-sim']:.3f} s ({walls['trace-sim'] / t - 1:+.1%})")


# ------------------------------------------------------------------ modes

def full_run(args, spec):
    build()
    replicas = workload_replicas()
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(replicas):
        raise Failure(f"BENCHMARK.json workloads {names} differ from fdgm_perf's "
                      f"{sorted(replicas)}")
    passes = 1 if args.smoke else TIMED_PASSES
    timed = {n: [] for n in names}
    for i in range(passes):
        for name in names if i % 2 == 0 else reversed(names):
            log(f"timed pass {i + 1}/{passes}: {name}")
            rec = run_pass(name, args.seed, "timed", smoke=args.smoke)
            timed[name].append(drop_samples(rec) if timed[name] else rec)
    result = {"seed": args.seed, "smoke": args.smoke, "timed_passes": passes,
              "machine": machine(), "workloads": {}}
    failures = []
    for name in names:
        half = 1 if args.smoke else (replicas[name] + 1) // 2
        log(f"traced passes: {name}")
        host = run_pass(name, args.seed, "trace-host", half, args.smoke)
        sim = run_pass(name, args.seed, "trace-sim", half, args.smoke)
        bad = problems(name, timed[name] + [host, sim])
        failures += bad
        e2e, samples = end_to_end(timed[name])
        layer = per_layer(timed[name], host, sim)
        walls = run_loop_walls(timed[name], host, sim)
        print_workload(name, e2e, samples, layer, walls, spec)
        attempted, failed = offered(timed[name][0])
        result["workloads"][name] = {
            "correct": not bad, "attempted": attempted, "failed": failed,
            "digest": digest(timed[name][0]), "samples": samples,
            "end_to_end": e2e,
            "per_layer": layer, "run_loop_wall_s": walls,
        }
    out = args.out or DEFAULT_OUT
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"\nresult written to {out}")
    for p in failures:
        print(f"FAIL {p}")
    print("correct" if not failures else f"{len(failures)} correctness failures")
    return 1 if failures else 0


def single_run(args, spec):
    build()
    replicas = workload_replicas()
    if args.workload not in replicas:
        raise Failure(f"unknown workload {args.workload!r}; known: {sorted(replicas)}")
    if args.trace:
        half = (replicas[args.workload] + 1) // 2
        timed = [run_pass(args.workload, args.seed, "timed", half)]
        host = run_pass(args.workload, args.seed, "trace-host", half)
        sim = run_pass(args.workload, args.seed, "trace-sim", half)
        records = timed + [host, sim]
        layer = per_layer(timed, host, sim)
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print_workload(args.workload, None, None, layer, run_loop_walls(timed, host, sim), spec)
    else:
        timed = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            rec = run_pass(args.workload, args.seed, "timed")
            timed.append(drop_samples(rec) if timed else rec)
            last = time.monotonic() - t0
            done = time.monotonic() - start
            if len(timed) >= MAX_TIMED_PASSES or (
                    len(timed) >= TIMED_PASSES and done + last > args.seconds):
                break
        records = timed
        e2e, samples = end_to_end(timed)
        print_workload(args.workload, e2e, samples, None, None, spec)
        metrics = {m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    bad = problems(args.workload, records)
    for p in bad:
        print(f"FAIL {p}")
    attempted, failed = offered(records[0])
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if bad else 0


def verdict(a, b, better, bound, absolute=False):
    """better / worse / unchanged / unresolved for change B against base A.

    `a` and `b` are result-file entries: "value" is the reported metric,
    "passes" the per-pass values whose quartiles give the spread.
    """
    qa, qb = stats.quartiles(a["passes"]), stats.quartiles(b["passes"])
    scale = 1.0 if absolute or a["value"] == 0 else abs(a["value"])
    worse_by = (b["value"] - a["value"]) / scale * (1 if better == "lower" else -1)
    width = max(qa[2] - qa[0], qb[2] - qb[0]) / scale
    if width > bound:
        beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
        wins = all(beats(x, y) for x in b["passes"] for y in a["passes"])
        return "better" if wins else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "unchanged"


def compare(args, spec):
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    print(f"A = {args.a}\nB = {args.b}")
    print("value: the metric as reported; passes: q1 / median / q3 over the timed passes")
    print(f"{'workload':<11} {'metric':<14} {'A value':>11} {'A passes':>32} "
          f"{'B value':>11} {'B passes':>32} {'bound':>6}  verdict")
    counts = {}
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        same = "identical" if wa["digest"] == wb["digest"] else "DIFFERENT"
        print(f"{name:<11} delivery digests {wa['digest']} / {wb['digest']}: {same}")
        for m in spec["end_to_end"] + EXTRA_END_TO_END:
            ea, eb = wa["end_to_end"].get(m["name"]), wb["end_to_end"].get(m["name"])
            if ea is None or eb is None or ea["value"] is None or eb["value"] is None:
                continue
            qa, qb = stats.quartiles(ea["passes"]), stats.quartiles(eb["passes"])
            v = verdict(ea, eb, m["better"], m["bound"], m.get("absolute", False))
            counts[v] = counts.get(v, 0) + 1
            bound = f"{m['bound']:g}" if m.get("absolute") else f"{m['bound']:.0%}"
            print(f"{name:<11} {m['name']:<14} {fmt(ea['value']):>11} "
                  f"{' / '.join(fmt(q) for q in qa):>32} {fmt(eb['value']):>11} "
                  f"{' / '.join(fmt(q) for q in qb):>32} {bound:>6}  {v}")
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 0


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return compare(p.parse_args(argv[1:]), load_spec())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--workload")
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**48:
        p.error("--seed must be in [0, 2^48)")
    spec = load_spec()
    if args.workload is None:
        return full_run(args, spec)
    if args.smoke or args.out:
        p.error("--smoke and --out apply to the full run, not to --workload")
    return single_run(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (Failure, subprocess.SubprocessError, OSError) as e:
        log(f"run.py: {e}")
        sys.exit(2)
