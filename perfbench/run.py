#!/usr/bin/env python3
"""End-to-end benchmark: sequential vs Time Warp on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds perfbench/hpbench from
the checkout's sources into $CARGO_TARGET_DIR (default .bench_build) with
CMake; later calls only re-check the build.

For --seconds seconds the benchmark runs pairs: the workload on the
sequential kernel, then on the Time Warp kernel, each in its own process and
with the same seed. A pair fails if either process fails or if the two
simulated outputs differ (committed-event count plus the model's output
fingerprint). Every pair is printed as one JSON line with its provenance;
the last line is the result object. With --trace 0 it holds the end-to-end
metrics: medians over the pairs, the Time Warp metrics over the pairs whose
Time Warp run lost almost no CPU to other work on the machine. With
--trace 1 the benchmark alternates untraced and traced pairs and reports
per-layer metrics from the traced ones. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("hotpotato_fig5", "phold_remote")

END_TO_END = {
    "seq_events_per_s": "1/s",
    "tw_events_per_s": "1/s",
    "speedup": "ratio",
    "setup_s": "s",
    "tw_peak_rss_mb": "MB",
}

PER_LAYER = {
    "des.forward_s": "s",
    "des.tw_kernel_ns_per_event": "ns",
    "des.seq_kernel_ns_per_event": "ns",
    "des.rollback_s": "s",
    "des.efficiency": "ratio",
    "des.rolled_back_events": "count",
    "des.secondary_per_primary": "ratio",
    "des.max_cascade_depth": "count",
    "des.anti_messages": "count",
    "des.gvt_s": "s",
    "des.gvt_rounds": "count",
    "des.gvt_progress_triggers": "count",
    "des.gvt_idle_triggers": "count",
    "des.events_per_gvt_round": "count",
    "des.fossil_s": "s",
    "des.idle_s": "s",
    "des.idle_spins": "count",
    "des.throttled_s": "s",
    "des.inbox_drain_s": "s",
    "des.avg_inbox_batch": "count",
    "des.pool_peak_live": "count",
    "des.pool_bytes": "bytes",
    "des.unaccounted_s": "s",
    "hotpotato.forward_ns_per_event": "ns",
    "hotpotato.reverse_ns_per_event": "ns",
    "phold.forward_ns_per_event": "ns",
    "phold.reverse_ns_per_event": "ns",
    "hotpotato.model_ctor_s": "s",
    "net.block_mapping_s": "s",
    "des.make_engine_s": "s",
    "hotpotato.collect_channel_s": "s",
    "obs.trace_overhead": "ratio",
}

# A kernel process that runs longer than this has wedged; the pair fails.
CHILD_TIMEOUT_S = 60.0
# Every kernel process of a run ends within this many seconds of the run's
# start, so the run ends inside its time limit even when pairs run long.
HARD_STOP_S = 150.0
# A Time Warp run is calm when other work on the machine took at most this
# many CPUs' worth of time while it ran. The Time Warp metrics are medians
# over the pairs with a calm Time Warp run, or over the CALM_MIN least
# disturbed when fewer are calm.
CALM_CPUS = 0.1
CALM_MIN = 3

REPO_ROOT = Path(__file__).resolve().parent.parent


class PairFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds hpbench; returns its path. Raises on failure."""
    source = REPO_ROOT / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "hpbench"], check=True, stdout=sys.stderr)
    return build_dir / "hpbench"


def run_kernel(binary, workload, kernel, seed, traced, scale, timeout):
    cmd = [str(binary), f"--workload={workload}", f"--kernel={kernel}",
           f"--seed={seed}", f"--scale={scale}"]
    if traced:
        cmd.append("--traced")
    snap0, start = cpu_snapshot(), time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise PairFailed(f"{kernel} timed out after {timeout:.0f} s") from e
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PairFailed(f"{kernel} exited {proc.returncode}: {' | '.join(tail)}")
    snap1, wall = cpu_snapshot(), time.monotonic() - start
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise PairFailed(f"{kernel} printed no result") from e
    result.update(interference_s=interference(snap0, snap1), wall_s=wall)
    return result


def check_same_output(seq, tw):
    """The same-workload gate: both kernels must commit the same events and
    produce bit-identical simulated output."""
    if seq["counters"]["committed_events"] != tw["counters"]["committed_events"]:
        raise PairFailed(
            f"committed events differ: sequential "
            f"{seq['counters']['committed_events']} vs Time Warp "
            f"{tw['counters']['committed_events']}")
    if seq["output"] != tw["output"]:
        raise PairFailed(f"simulated output differs: sequential "
                         f"{seq['output']} vs Time Warp {tw['output']}")


def cpu_snapshot():
    """(steal, busy, own) CPU seconds so far. steal and busy are summed over
    all CPUs from /proc/stat; own is this process plus its waited-for
    children."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    hz = os.sysconf("SC_CLK_TCK")
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks
    own = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        own += r.ru_utime + r.ru_stime
    return steal / hz, (user + nice + system + irq + softirq) / hz, own


def interference(before, after):
    """CPU seconds the benchmark lost to other work between two snapshots:
    the host's steal plus the busy time of every other process."""
    steal, busy, own = (b - a for a, b in zip(before, after))
    return steal + max(0.0, busy - own)


def run_pair(binary, workload, seq_seed, tw_seed, traced, scale,
             deadline=None):
    """Runs one sequential + Time Warp pair. Returns a record with "ok".
    Kernel processes still running at `deadline` (time.monotonic()) are
    killed and fail the pair."""
    if deadline is None:
        deadline = time.monotonic() + 2 * CHILD_TIMEOUT_S
    def timeout():
        return max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    steal0 = cpu_snapshot()[0]
    record = {"workload": workload, "seed": seq_seed, "traced": traced}
    try:
        seq = run_kernel(binary, workload, "sequential", seq_seed, traced,
                         scale, timeout())
        tw = run_kernel(binary, workload, "timewarp", tw_seed, traced, scale,
                        timeout())
        if tw_seed != seq_seed:
            record["tw_seed"] = tw_seed
        check_same_output(seq, tw)
        record.update(ok=True, seq=seq, tw=tw)
    except PairFailed as e:
        record.update(ok=False, reason=str(e))
    record["steal_s"] = cpu_snapshot()[0] - steal0
    return record


def phase_accounting(tw):
    """Sum of per-PE phase seconds, run() seconds x PEs, and the remainder."""
    phase_sum = sum(tw["phases"].values())
    wall_pes = tw["run_s"] * tw["pes"]
    return phase_sum, wall_pes, wall_pes - phase_sum


def pair_metrics(pair):
    """The end-to-end metrics of one pair."""
    seq, tw = pair["seq"], pair["tw"]
    committed = seq["counters"]["committed_events"]
    return {
        "seq_events_per_s": committed / seq["run_s"],
        "tw_events_per_s": committed / tw["run_s"],
        "speedup": seq["run_s"] / tw["run_s"],
        "setup_s": seq["setup_s"] + tw["setup_s"],
        "tw_peak_rss_mb": tw["peak_rss_mb"],
    }


def lost_cpus(run):
    """CPUs' worth of time other work took while a kernel process ran."""
    return run["interference_s"] / max(run["wall_s"], 1e-9)


def calm(pairs):
    """The pairs whose Time Warp run was calm, or the CALM_MIN least
    disturbed. On a shared host a Time Warp run takes about its calm time
    plus the CPU time its PEs lose, and lost CPU can set off a GVT-round
    storm; a median over every pair would track the neighbours' load. The
    choice reads only the interference, nothing the program reports; ties
    keep run order."""
    ranked = sorted(pairs, key=lambda p: lost_cpus(p["tw"]))
    quiet = [p for p in ranked if lost_cpus(p["tw"]) <= CALM_CPUS]
    return quiet if len(quiet) >= CALM_MIN else ranked[:CALM_MIN]


def end_to_end(pairs):
    """End-to-end metrics of a run: medians over its untraced pairs, the
    Time Warp metrics over the calm ones. The speed-up is taken pair by
    pair, so a slow spell of the host that hits both kernels of a pair
    cancels out."""
    values = medians([pair_metrics(p) for p in pairs],
                     ("seq_events_per_s", "setup_s"))
    values.update(medians([pair_metrics(p) for p in calm(pairs)],
                          ("tw_events_per_s", "speedup", "tw_peak_rss_mb")))
    return {k: values[k] for k in END_TO_END}


def ratio(num, den):
    return num / den if den else 0.0


def handler_ns(runs, which):
    """Mean model-handler ns per call, pooled over the given traced runs."""
    calls = sum(r["handlers"][f"{which}_calls"] for r in runs)
    ns = sum(r["handlers"][f"{which}_calls"] * r["handlers"][f"{which}_ns_per_call"]
             for r in runs)
    return ratio(ns, calls)


def handler_s(run, which):
    h = run["handlers"]
    return h[f"{which}_calls"] * h[f"{which}_ns_per_call"] * 1e-9


def per_layer(pair):
    """Per-layer metrics of one traced pair (obs.trace_overhead is added by
    the caller, which also has the untraced pairs)."""
    seq, tw = pair["seq"], pair["tw"]
    c, ph = tw["counters"], tw["phases"]
    hot = seq["workload"] == "hotpotato_fig5"
    model = "hotpotato" if hot else "phold"
    other = "phold" if hot else "hotpotato"
    return {
        "des.forward_s": ph["forward"],
        "des.tw_kernel_ns_per_event": 1e9 * ratio(
            ph["forward"] - handler_s(tw, "forward"), c["processed_events"]),
        "des.seq_kernel_ns_per_event": 1e9 * ratio(
            seq["run_s"] - handler_s(seq, "forward"),
            seq["counters"]["committed_events"]),
        "des.rollback_s": ph["rollback"],
        "des.efficiency": ratio(c["committed_events"], c["processed_events"]),
        "des.rolled_back_events": c["rolled_back_events"],
        "des.secondary_per_primary": ratio(c["secondary_rollbacks"],
                                           c["primary_rollbacks"]),
        "des.max_cascade_depth": c["max_cascade_depth"],
        "des.anti_messages": c["anti_messages"],
        "des.gvt_s": ph["gvt_barrier"] + ph["gvt_epoch"],
        "des.gvt_rounds": tw["gvt_rounds"],
        "des.gvt_progress_triggers": c["gvt_progress_triggers"],
        "des.gvt_idle_triggers": c["gvt_idle_triggers"],
        "des.events_per_gvt_round": ratio(c["committed_events"], tw["gvt_rounds"]),
        "des.fossil_s": ph["fossil"],
        "des.idle_s": ph["idle"],
        "des.idle_spins": c["idle_spins"],
        "des.throttled_s": ph["throttled"],
        "des.inbox_drain_s": ph["inbox_drain"],
        "des.avg_inbox_batch": ratio(c["inbox_batched_items"], c["inbox_batches"]),
        "des.pool_peak_live": c["pool_peak_live_envelopes"],
        "des.pool_bytes": c["pool_bytes"],
        "des.unaccounted_s": phase_accounting(tw)[2],
        f"{model}.forward_ns_per_event": handler_ns([seq, tw], "forward"),
        f"{model}.reverse_ns_per_event": handler_ns([tw], "reverse"),
        # The other model does not run on this workload.
        f"{other}.forward_ns_per_event": 0.0,
        f"{other}.reverse_ns_per_event": 0.0,
        "des.make_engine_s": seq["make_engine_s"] + tw["make_engine_s"],
        "hotpotato.model_ctor_s":
            seq["model_ctor_s"] + tw["model_ctor_s"] if hot else 0.0,
        "net.block_mapping_s": tw["mapping_s"] if hot else 0.0,
        "hotpotato.collect_channel_s":
            seq["collect_s"] + tw["collect_s"] if hot else 0.0,
    }


def medians(rows, names):
    return {k: statistics.median(r[k] for r in rows) for k in names}


def spans_trace(pairs):
    """Chrome trace of the benchmark's own spans, one track per kernel run."""
    events, tid = [], 0
    for i, pair in enumerate(pairs):
        for kernel in ("seq", "tw"):
            run = pair.get(kernel)
            if not run or "spans" not in run:
                continue
            tid += 1
            label = f"pair {i} {run['kernel']} ({run['pes']} PE)"
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": tid, "args": {"name": label}})
            for s in run["spans"]:
                events.append({"ph": "X", "name": s["name"], "pid": 1,
                               "tid": tid, "ts": s["begin_ns"] / 1000.0,
                               "dur": (s["end_ns"] - s["begin_ns"]) / 1000.0})
    return {"traceEvents": events}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=REPO_ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted([*REPO_ROOT.glob("src/**/*"),
                        *REPO_ROOT.glob("perfbench/*")]):
        if path.is_file() and path.suffix in (".cpp", ".hpp", ".py", ".txt"):
            h.update(str(path.relative_to(REPO_ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure(binary, workload, seed, seconds, trace, scale="full"):
    """Runs pairs for `seconds` seconds; returns (pairs, result object)."""
    start = time.monotonic()
    pairs = []
    while True:
        traced = trace and len(pairs) % 2 == 1
        pair = run_pair(binary, workload, seed, seed, traced, scale,
                        deadline=start + HARD_STOP_S)
        pair["index"] = len(pairs)
        pairs.append(pair)
        elapsed = time.monotonic() - start
        enough = len(pairs) >= (2 if trace else 1)
        if enough and elapsed >= seconds or elapsed >= HARD_STOP_S - 1.0:
            break
    return pairs, summarize(pairs, trace)


def summarize(pairs, trace):
    good = [p for p in pairs if p["ok"]]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    failed = len(pairs) - len(good)
    correct = failed == 0
    # A traced run must reproduce the untraced output exactly, and no PE can
    # spend more time in phases than run() took.
    outputs = {p["seq"]["output"] for p in good}
    if len(outputs) > 1:
        correct = False
    for p in good:
        if phase_accounting(p["tw"])[2] < -1e-3 * p["tw"]["run_s"]:
            correct = False
    if trace:
        rows = [per_layer(p) for p in traced]
        values = medians(rows, [k for k in PER_LAYER if k != "obs.trace_overhead"]) \
            if rows else {}
        if rows and plain:
            t = statistics.median(p["seq"]["run_s"] + p["tw"]["run_s"] for p in traced)
            u = statistics.median(p["seq"]["run_s"] + p["tw"]["run_s"] for p in plain)
            values["obs.trace_overhead"] = t / u
        units = PER_LAYER
    else:
        values = end_to_end(plain) if plain else {}
        units = END_TO_END
    if len(values) < len(units):
        correct = False
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    return {"correct": correct, "attempted": len(pairs), "failed": failed,
            "metrics": metrics}


def pair_line(pair):
    """One printed line per pair: the numbers and their provenance."""
    out = {k: pair[k] for k in ("index", "workload", "seed", "traced", "ok", "steal_s")}
    if not pair["ok"]:
        out["reason"] = pair["reason"]
        return out
    for key in ("seq", "tw"):
        r = pair[key]
        out[key] = {k: r[k] for k in ("kernel", "pes", "setup_s", "run_s",
                                      "peak_rss_mb", "hwm_reset", "output",
                                      "gvt_rounds", "interference_s",
                                      "wall_s")}
        out[key]["committed"] = r["counters"]["committed_events"]
    tw = pair["tw"]
    out["compiler"], out["build_type"] = tw["compiler"], tw["build_type"]
    phase_sum, wall_pes, rest = phase_accounting(tw)
    out["tw"].update(phase_sum_s=phase_sum, run_x_pes_s=wall_pes,
                     unaccounted_s=rest)
    out.update(pair_metrics(pair))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    snap0 = cpu_snapshot()
    pairs, result = measure(binary, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    snap1 = cpu_snapshot()
    prov = {"nproc": os.cpu_count(), "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed,
            "steal_s": snap1[0] - snap0[0],
            "interference_s": interference(snap0, snap1),
            "pairs": len(pairs),
            "calm_pairs": sum(1 for p in pairs if p["ok"] and not p["traced"]
                              and lost_cpus(p["tw"]) <= CALM_CPUS)}
    print(json.dumps({"provenance": prov}))
    for pair in pairs:
        print(json.dumps(pair_line(pair)))
    if args.trace:
        path = build_dir / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans_trace(pairs)))
        log(f"perfbench: benchmark spans written to {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
