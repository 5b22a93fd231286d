#!/usr/bin/env python3
"""End-to-end benchmark of `loopdetect` and `loopmond`.

Run from the repository root:

    python3 bench_e2e/run.py --workload offline_pcap --seed 1 --seconds 20 --trace 0
    python3 bench_e2e/run.py --workload all --seed 1          # every workload, interleaved
    python3 bench_e2e/run.py --selftest                       # seconds-long self-test

The benchmark builds the binaries and its helper (`bench_e2e/src`) from
source, generates the workload's inputs for the seed once (cached under
`.bench_cache/`, never timed), computes the reference outputs once per
seed, then times the real binaries as subprocesses over the generated
files, checking every output against the reference. `--trace 1` instead
runs the helper's traced in-process mirror of the workload and reports
per-layer metrics. The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. See bench_e2e/README.md
for the workloads, metrics and the layer-to-metric map.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Worker threads for every command: the core count of the machine the
# benchmark was defined on. Fixed, so results do not change meaning
# between machines; the machine's own core count is printed beside them.
# The helper's in-process runs use the same count (THREADS in
# src/workloads.rs).
THREADS = 2
# Seed directories kept in the input cache (each holds up to ~100 MB).
CACHE_KEEP = 6
# Part of every cache directory's name: bump it when the cached files
# (inputs, manifest or references) change.
CACHE_FORMAT = 2
# Helper calls that take the set-up samples of one timed run.
SETUP_CALLS = 4

WORKLOADS = ["offline_pcap", "offline_ltc", "monitor_links"]
INPUT_KIND = {"offline_pcap": "offline", "offline_ltc": "offline", "monitor_links": "monitor"}

E2E_UNITS = {
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "lag_p50_s": "s",
    "lag_p99_s": "s",
}

LAYER_UNITS = {
    "pcaplib.read_s": "s",
    "pcaplib.mb_per_s": "MB/s",
    "corpus.convert_s": "s",
    "corpus.open_s": "s",
    "corpus.decode_s": "s",
    "pipeline.feed_s": "s",
    "pipeline.finish_s": "s",
    "block.busy_max_s": "s",
    "block.busy_mean_s": "s",
    "block.skew": "ratio",
    "replica.scan_s": "s",
    "replica.records": "count",
    "replica.prefilter_hits": "count",
    "replica.prefilter_misses": "count",
    "replica.useful_ratio": "ratio",
    "validate.index_s": "s",
    "validate.s": "s",
    "validate.rejected_short": "count",
    "validate.rejected_covalidation": "count",
    "merge.s": "s",
    "merge.loops": "count",
    "analysis.fold_s": "s",
    "sink.write_s": "s",
    "sink.bytes": "bytes",
    "monitor.feed_s": "s",
    "monitor.feed_ms_p50": "ms",
    "monitor.feed_ms_p99": "ms",
    "monitor.feed_calls": "count",
    "monitor.finish_s": "s",
    "online.open_candidates_max": "count",
    "online.history_max": "count",
    "online.events": "count",
    "traced_wall_s": "s",
    "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run (missing sources, build or input failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Env:
    def __init__(self, root):
        self.root = root
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = target if os.path.isabs(target) else os.path.join(root, target)
        self.bin = os.path.join(self.target, "release")
        self.cache = os.path.join(root, ".bench_cache")

    def exe(self, name):
        return os.path.join(self.bin, name)

    def build(self):
        for f in ("Cargo.toml", os.path.join("bench_e2e", "Cargo.toml")):
            if not os.path.isfile(os.path.join(self.root, f)):
                raise BenchError(f"{f} not found: run from the repository root")
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        steps = [
            ["cargo", "build", "--release", "--offline", "-p", "routing-loops",
             "--bin", "loopdetect", "--bin", "loopmond", "--bin", "pcap2ltc"],
            ["cargo", "build", "--release", "--offline",
             "--manifest-path", os.path.join("bench_e2e", "Cargo.toml")],
        ]
        for cmd in steps:
            r = subprocess.run(cmd, cwd=self.root, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)}")

    def helper(self, *args):
        r = subprocess.run([self.exe("bench-e2e"), *map(str, args)], cwd=self.root,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            raise BenchError(f"bench-e2e {args[0]} failed: {r.stderr.strip()}")
        return json.loads(r.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- inputs

def prune_cache(env, keep_dir):
    dirs = [os.path.join(env.cache, d) for d in os.listdir(env.cache)]
    dirs = [d for d in dirs if os.path.isdir(d) and d != keep_dir]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for d in dirs[CACHE_KEEP - 1:]:
        shutil.rmtree(d, ignore_errors=True)


def ref_run(cmd, path):
    with open(path + ".tmp", "wb") as out:
        r = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise BenchError(f"reference run failed: {' '.join(cmd)}: {r.stderr.decode(errors='replace')}")
    os.replace(path + ".tmp", path)


def prepare_inputs(env, kind, seed, size):
    """Generates (once per seed) the input files and the reference outputs,
    which come from the serial engine at one thread."""
    os.makedirs(env.cache, exist_ok=True)
    gen_id = env.helper("gen-id", "--kind", kind, "--size", size)["id"]
    d = os.path.join(env.cache, f"{kind}-{size}-{seed}-{gen_id}-{CACHE_FORMAT}")
    if not os.path.isfile(os.path.join(d, "READY")):
        shutil.rmtree(d, ignore_errors=True)
        tmp = tempfile.mkdtemp(prefix=f".{kind}-", dir=env.cache)
        log(f"generating {kind} inputs for seed {seed} ...")
        env.helper("gen", "--kind", kind, "--seed", seed, "--size", size, "--dir", tmp)
        serial = ["--engine", "serial", "--threads", "1"]
        ld = env.exe("loopdetect")
        if kind == "offline":
            pcap, ltc = os.path.join(tmp, "trace.pcap"), os.path.join(tmp, "trace.ltc")
            r = subprocess.run([env.exe("pcap2ltc"), pcap, ltc, "--threads", str(THREADS), "--quiet"],
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            if r.returncode != 0:
                raise BenchError(f"pcap2ltc failed: {r.stderr.decode(errors='replace')}")
            ref_run([ld, pcap, "--csv", "loops", *serial], os.path.join(tmp, "ref-loops.csv"))
            ref_run([ld, ltc, "--analysis", *serial], os.path.join(tmp, "ref-analysis.txt"))
            ref_run([ld, pcap, "--csv", "streams", "--format", "jsonl", *serial],
                    os.path.join(tmp, "ref-streams.jsonl"))
        else:
            for link in link_files(tmp):
                stem = os.path.join(tmp, "ref-" + os.path.basename(link)[:-len(".pcap")])
                ref_run([ld, link, "--csv", "streams", "--format", "jsonl", *serial], stem + ".streams.jsonl")
                ref_run([ld, link, "--csv", "loops", "--format", "jsonl", *serial], stem + ".loops.jsonl")
        open(os.path.join(tmp, "READY"), "w").close()
        os.replace(tmp, d)
    os.utime(d)
    prune_cache(env, d)
    return d


def link_files(d):
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.startswith("link-") and f.endswith(".pcap"))


# ------------------------------------------------------------ the commands

def command(env, workload, d, events):
    t = ["--threads", str(THREADS)]
    if workload == "offline_pcap":
        return [env.exe("loopdetect"), os.path.join(d, "trace.pcap"), "--csv", "loops", *t]
    if workload == "offline_ltc":
        return [env.exe("loopdetect"), os.path.join(d, "trace.ltc"), "--analysis", *t]
    return [env.exe("loopmond"), *link_files(d), "--events", events, *t]


def run_timed(cmd):
    """Runs `cmd` to completion, reading stdout to EOF. Returns exit code,
    wall seconds, user+sys CPU seconds, peak RSS (MB) and stdout bytes."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, out


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def monitor_events_ok(d, events_text):
    """Each link's stream events must equal, as a sorted set of bodies, the
    link's offline serial `--csv streams --format jsonl` lines, and its
    loop-event count must equal the offline loop count."""
    streams, loops = {}, {}
    for line in events_text.splitlines():
        try:
            ev = json.loads(line)
        except ValueError:
            return False
        link, kind = ev.get("link"), ev.get("event")
        if kind == "stream":
            prefix = '{"link":"%s","event":"stream",' % link
            if not line.startswith(prefix):
                return False
            streams.setdefault(link, []).append("{" + line[len(prefix):])
        elif kind == "loop":
            loops[link] = loops.get(link, 0) + 1
        else:
            return False
    links = [os.path.basename(f)[:-len(".pcap")] for f in link_files(d)]
    for link in links:
        ref = read_bytes(os.path.join(d, f"ref-{link}.streams.jsonl")).decode().splitlines()
        ref_loops = read_bytes(os.path.join(d, f"ref-{link}.loops.jsonl")).decode().splitlines()
        if sorted(streams.get(link, [])) != sorted(ref):
            return False
        if loops.get(link, 0) != len(ref_loops):
            return False
    return set(streams) | set(loops) <= set(links)


def output_ok(workload, d, stdout, events):
    if workload == "offline_pcap":
        return stdout == read_bytes(os.path.join(d, "ref-loops.csv"))
    if workload == "offline_ltc":
        return stdout == read_bytes(os.path.join(d, "ref-analysis.txt"))
    try:
        text = read_bytes(events).decode()
    except (OSError, UnicodeDecodeError):
        return False
    return monitor_events_ok(d, text)


class Measured:
    def __init__(self, workload, d, records):
        self.workload, self.d, self.records = workload, d, records
        self.walls, self.cpus, self.rss, self.setup = [], [], [], []
        self.setup_calls = 0
        self.attempted = self.failed = 0

    def take_setup(self, env):
        self.setup += env.helper("setup", "--workload", self.workload, "--dir", self.d)["samples"]
        self.setup_calls += 1


def run_once(env, m, keep=True):
    events = os.path.join(m.d, "events.jsonl")
    code, wall, cpu, rss, out = run_timed(command(env, m.workload, m.d, events))
    ok = code == 0 and output_ok(m.workload, m.d, out, events)
    if keep:
        m.attempted += 1
        if ok:
            m.walls.append(wall)
            m.cpus.append(cpu)
            m.rss.append(rss)
        else:
            m.failed += 1
            log(f"{m.workload}: run failed (exit {code}) or output differs from the reference")
    return ok


def measure(env, ms, seconds):
    """One discarded warm-up run per workload, then runs round-robin over
    the workloads until each has had `seconds` of measured time (and at
    least three runs). The set-up samples are taken in SETUP_CALLS helper
    calls spread evenly over each workload's measured time, so that they
    see the machine in the same states as the runs do: on a shared host
    its speed drifts within seconds."""
    for m in ms:
        run_once(env, m, keep=False)
    spent = {id(m): 0.0 for m in ms}
    while any(spent[id(m)] < seconds or m.attempted < 3 for m in ms):
        for m in ms:
            if spent[id(m)] < seconds or m.attempted < 3:
                if m.setup_calls < SETUP_CALLS and spent[id(m)] >= m.setup_calls * seconds / SETUP_CALLS:
                    m.take_setup(env)
                t0 = time.perf_counter()
                run_once(env, m)
                spent[id(m)] += time.perf_counter() - t0
    for m in ms:
        while m.setup_calls < SETUP_CALLS:
            m.take_setup(env)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    v = sorted(xs)
    return v[min(max(math.ceil(q * len(v)), 1), len(v)) - 1]


def lags(env, m):
    """Detection lag samples (trace seconds) and how many of them a finish
    call released. On `monitor_links` they come from the helper's replay.
    The batch engines release every stream at the end of input, so on the
    offline workloads a stream's lag is the trace end minus its evidence
    end: fixed by the input, whatever the program does. It is computed
    from the serial reference streams."""
    if m.workload == "monitor_links":
        r = env.helper("lag", "--dir", m.d)
        return r["samples"], r["tail_events"]
    end = manifest(m.d)["trace_end_s"]
    lines = read_bytes(os.path.join(m.d, "ref-streams.jsonl")).decode().splitlines()
    samples = [end - (s["start_s"] + s["duration_ms"] / 1e3) for s in map(json.loads, lines)]
    return samples, len(samples)


def e2e_metrics(env, m):
    setup = m.setup
    lag, tail = lags(env, m)
    wall = median(m.walls)
    values = {
        "records_per_s": m.records / wall if wall > 0 else 0.0,
        "cpu_s": median(m.cpus),
        "peak_rss_mb": median(m.rss),
        "setup_s": median(setup),
        "lag_p50_s": percentile(lag, 0.5),
        "lag_p99_s": percentile(lag, 0.99),
    }
    notes = {
        "runs": len(m.walls),
        "wall_s_median": wall,
        "wall_s_quartiles": quartiles(m.walls),
        "failed_frac": m.failed / max(m.attempted, 1),
        "setup_repeats": len(setup),
        "lag_samples": len(lag),
        "lag_tail_events": tail,
    }
    return values, notes


def quartiles(xs):
    if len(xs) < 2:
        return [median(xs)] * 2
    q = statistics.quantiles(xs, n=4)
    return [q[0], q[2]]


def traced_metrics(env, m):
    """One traced run. It fails when a check in the helper fails (pipeline
    and serial decomposition against `Detector::run`; on `offline_ltc` the
    analysis report against a serial run's) or when its loops CSV or
    events differ from the reference."""
    out = os.path.join(m.d, "traced.out")
    r = env.helper("trace", "--workload", m.workload, "--dir", m.d, "--out", out)
    failures = r["failures"]
    if m.workload == "offline_pcap" and not output_ok(m.workload, m.d, read_bytes(out), None):
        failures.append("traced loops CSV differs from the reference")
    if m.workload == "monitor_links" and not output_ok(m.workload, m.d, b"", out):
        failures.append("traced events differ from the reference")
    m.attempted += 1
    if failures:
        m.failed += 1
        for f in failures:
            log(f"{m.workload}: {f}")
    return r["metrics"]


# ------------------------------------------------------------------ report

def machine():
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    return {
        "cores": os.cpu_count(),
        "threads": THREADS,
        "rustc": cmd_out(["rustc", "--version"]),
        "commit": cmd_out(["git", "rev-parse", "--short", "HEAD"]),
        "python": platform.python_version(),
    }


def manifest(d):
    with open(os.path.join(d, "manifest.json")) as f:
        m = json.load(f)
    m.pop("traces", None)
    return m


def print_table(title, rows, units):
    print(title)
    for name, value in rows.items():
        print(f"  {name:<32} {value:>16.6g} {units.get(name, '')}")


def run(args):
    root = os.getcwd()
    env = Env(root)
    env.build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ms = []
    for w in workloads:
        d = prepare_inputs(env, INPUT_KIND[w], args.seed, "full")
        info = manifest(d)
        print(f"inputs {w}: {json.dumps(info)}")
        ms.append(Measured(w, d, info["records"]))
    print(f"machine: {json.dumps(machine())}")

    metrics = {}
    if args.trace:
        for m in ms:
            values = traced_metrics(env, m)
            print_table(f"per-layer {m.workload} (traced in-process run)", values, LAYER_UNITS)
            for k, v in values.items():
                metrics[k if len(ms) == 1 else f"{m.workload}/{k}"] = {"value": v, "unit": LAYER_UNITS[k]}
    else:
        measure(env, ms, args.seconds)
        for m in ms:
            values, notes = e2e_metrics(env, m)
            print_table(f"end-to-end {m.workload}", values, E2E_UNITS)
            print(f"  notes: {json.dumps(notes)}")
            for k, v in values.items():
                metrics[k if len(ms) == 1 else f"{m.workload}/{k}"] = {"value": v, "unit": E2E_UNITS[k]}
    attempted = sum(m.attempted for m in ms)
    failed = sum(m.failed for m in ms)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# --------------------------------------------------------------- self-test

def selftest(args):
    """Seconds-long checks of the benchmark itself: every workload runs
    clean on tiny inputs, corrupted outputs are caught, and the helper's
    own tests (lag arithmetic on a hand-built link, span self times) pass."""
    root = os.getcwd()
    env = Env(root)
    env.build()
    r = subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path",
                        os.path.join("bench_e2e", "Cargo.toml")],
                       cwd=root, env=dict(os.environ, CARGO_TARGET_DIR=env.target),
                       stdout=sys.stderr, stderr=sys.stderr)
    checks = [("helper unit tests (lag arithmetic, span self time)", r.returncode == 0)]

    ms = []
    for w in WORKLOADS:
        d = prepare_inputs(env, INPUT_KIND[w], args.seed, "tiny")
        ms.append(Measured(w, d, manifest(d)["records"]))
    for m in ms:
        for _ in range(2):
            run_once(env, m)
        checks.append((f"{m.workload}: tiny runs match the reference", m.failed == 0 and m.attempted == 2))
        traced_metrics(env, m)
        checks.append((f"{m.workload}: tiny traced run passes its checks", m.failed == 0))
        events = os.path.join(m.d, "events.jsonl")
        out = run_timed(command(env, m.workload, m.d, events))[4]
        if m.workload == "monitor_links":
            text = read_bytes(events).decode()
            lines = text.splitlines()
            stream_at = next(i for i, l in enumerate(lines) if '"event":"stream"' in l)
            altered = lines[:]
            altered[stream_at] = altered[stream_at].replace('"replicas":', '"replicas":1', 1)
            corrupt = {
                "dropped event": "\n".join(lines[1:]),
                "altered stream": "\n".join(altered),
            }
            for what, bad in corrupt.items():
                checks.append((f"{m.workload}: {what} counts as failed",
                               monitor_events_ok(m.d, text) and not monitor_events_ok(m.d, bad)))
        else:
            flipped = bytearray(out)
            flipped[len(flipped) // 2] ^= 0x01
            checks.append((f"{m.workload}: flipped output byte counts as failed",
                           output_ok(m.workload, m.d, out, None)
                           and not output_ok(m.workload, m.d, bytes(flipped), None)))
    empty = tempfile.mkdtemp(prefix=".selftest-", dir=env.cache)
    missing = Measured("offline_pcap", empty, 1)
    run_once(env, missing)
    shutil.rmtree(empty, ignore_errors=True)
    checks.append(("a non-zero exit counts as failed", missing.failed == 1))

    for what, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
    failed = sum(1 for _, ok in checks if not ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": {}}))
    return 0 if failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        return selftest(args) if args.selftest else run(args) or 0
    except BenchError as e:
        log(f"bench_e2e: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
