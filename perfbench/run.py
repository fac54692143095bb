#!/usr/bin/env python3
"""Repository benchmark: the whyq daemon end to end, and each layer traced.

Usage (from the repository root):

  python3 perfbench/run.py --workload exact_guard|greedy_mix|serve_update \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Each run builds whyq (Release) from the sources next to this directory into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from the seed (perfbench_tool gen), starts `whyq_cli serve` as a child
process on a loopback port, drives it from one load-generator process for
S seconds, checks every distinct answer (perfbench_tool check), and prints
as its last stdout line one JSON object:

  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the same load,
builds client spans from its records, then runs the per-layer replay
(perfbench_tool replay), and reports the per-layer metrics; its span file
lands in .bench_out/.
Everything else the run prints (provenance, every end-to-end figure with
its unit and sample count, the answer digest) goes to the lines before.
The exit code is non-zero when any answer fails its check, when the
traced replay does not reconcile, or when the library was built without
optimization.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
OUT = os.path.join(ROOT, ".bench_out")
NPROC = len(os.sched_getaffinity(0))

# Setup repetitions per run: setup_s is their median.
SETUP_REPEATS = 7
# Candidate tail percentiles, highest first (see tail()).
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
DAEMON_TIMEOUT_S = 20.0

# The workloads. Their shape (graph, questions, daemon flags, clients, the
# writer, the summary window) is one table in the tool, perfbench/tool/
# inputs.cc LookupWorkload; `perfbench_tool gen` prints what this script
# needs of it.
WORKLOADS = ("exact_guard", "greedy_mix", "serve_update")

E2E = [  # name, unit
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
# Reported with unit and sample count on the report lines; not all of them
# exist on every workload, so they are not part of the result object.
REPORT_ONLY = [
    ("error_rate", "ratio"),
    ("closeness_mean", "ratio"),
    ("rewrite_cost_mean", "cost"),
    ("update_p50_ms", "ms"),
    ("update_tail_ms", "ms"),
]
PER_LAYER = [  # name, unit
    ("server.wire_overhead_ms", "ms"),
    ("server.parse_us", "us"),
    ("server.encode_us", "us"),
    ("server.rejected", "count"),
    ("service.queue_ms", "ms"),
    ("service.search_ms", "ms"),
    ("service.prepare_ms", "ms"),
    ("service.prepare_query_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_invalidated", "count"),
    ("service.cache_rekeyed", "count"),
    ("service.apply_update_ms", "ms"),
    ("query.parse_us", "us"),
    ("graph.load_ms", "ms"),
    ("graph.apply_update_ms", "ms"),
    ("matcher.match_output_ms", "ms"),
    ("matcher.ctx_hit_ratio", "ratio"),
    ("matcher.ctx_pruned", "count"),
    ("rewrite.guard_checks", "count"),
    ("rewrite.guard_repeat_ratio", "ratio"),
    ("rewrite.guard_admit_ratio", "ratio"),
    ("rewrite.guard_ms", "ms"),
    ("rewrite.evaluate_ms", "ms"),
    ("rewrite.affected_ms", "ms"),
    ("why.picky_ms", "ms"),
    ("why.picky_ops", "count"),
    ("why.enumerate_self_ms", "ms"),
    ("why.mbs_enumerated", "count"),
    ("why.mbs_verified", "count"),
    ("why.exact_why_ms", "ms"),
    ("why.exact_whynot_ms", "ms"),
    ("why.approx_why_ms", "ms"),
    ("why.fast_whynot_ms", "ms"),
    ("why.greedy_rounds", "count"),
    ("common.exact_parallel_speedup", "x"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Setup failed; the run prints no result and exits non-zero."""


# --------------------------------------------------------------- build ----

def build():
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "perfbench_build.log")
    with open(logpath, "w") as lf:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=lf, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("cmake configure failed (see %s)" % logpath)
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
             "whyq_cli", "perfbench_tool"],
            stdout=lf, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError("build failed (see %s)" % logpath)
    return (os.path.join(BUILD, "whyq_cli"),
            os.path.join(BUILD, "perfbench_tool"))


def tool(tool_path, *args, timeout=170):
    p = subprocess.run([tool_path] + list(args), capture_output=True,
                       text=True, timeout=timeout)
    if p.returncode != 0:
        raise BenchError("perfbench_tool %s failed: %s" %
                         (args[0], p.stderr.strip()))
    return p.stdout


def provenance(tool_path, seed):
    info = json.loads(tool(tool_path, "info"))
    commit = "unknown"  # a plain source tree has no commit; see the digest
    try:
        top, head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    valid = info["optimized"] and info["build_type"] in (
        "Release", "RelWithDebInfo", "MinSizeRel")
    return {
        "commit": commit, "source_sha256": digest.hexdigest()[:16],
        "build_type": info["build_type"], "optimized": info["optimized"],
        "compiler": info["compiler"], "cpu_model": cpu, "cpu_count": NPROC,
        "seed": seed, "valid": valid,
    }


# -------------------------------------------------------------- daemon ----

class Daemon:
    """One `whyq_cli serve` child on an ephemeral loopback port."""

    def __init__(self, cli, graph, gen):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [cli, "serve", graph, "--port=0",
             "--workers=%d" % gen["workers"],
             "--threads=%d" % gen["threads"],
             "--cache=%d" % gen["cache"]],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise BenchError("daemon did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])
        # Drain the rest of stdout so the child never blocks on a pipe.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def connect(self):
        s = socket.create_connection(("127.0.0.1", self.port), timeout=120)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Conn(s)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Conn:
    def __init__(self, sock):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def call(self, line):
        self.sock.sendall(line)
        resp = self.reader.readline()
        if not resp:
            raise ConnectionError("daemon closed the connection")
        return resp

    def close(self):
        self.reader.close()
        self.sock.close()


def start_daemon(cli, graph, gen):
    """Spawns the daemon and returns (daemon, seconds to first ok reply)."""
    d = Daemon(cli, graph, gen)
    try:
        c = d.connect()
        reply = json.loads(c.call(b'{"id":0,"question":"stats"}\n'))
        setup = time.perf_counter() - d.t0
        c.close()
        if reply.get("status") != "ok":
            raise BenchError("daemon's first reply is not ok")
    except BaseException:
        d.stop()
        raise
    return d, setup


def stats_counters(daemon):
    c = daemon.connect()
    doc = json.loads(c.call(b'{"id":0,"question":"stats"}\n'))["stats"]
    c.close()
    svc = next(iter(doc["service"].values()))["counters"]
    return dict(svc, server_rejected=doc["server"]["rejected"])


# ---------------------------------------------------------------- load ----

def run_load(tool_path, daemon, indir, workload, seconds, seed):
    """The timed phase: the C++ load generator (perfbench_tool load).
    Returns (records, writes, pairs): per-request tuples, per-update tuples,
    and the distinct answers as (request line, answer line)."""
    prefix = os.path.join(indir, "load")
    tool(tool_path, "load", "--workload=" + workload, "--dir=" + indir,
         "--port=%d" % daemon.port, "--seconds=%r" % seconds,
         "--seed=%d" % seed, "--out=" + prefix, timeout=seconds + 120)
    records = []
    with open(prefix + ".records") as f:
        for line in f:
            p = line.split()
            records.append(dict(
                idx=int(p[0]), draw=int(p[1]), send=int(p[2]),
                recv=int(p[3]), answer=int(p[4]), ok=p[5] == "1",
                truncated=p[6] == "1", latency_ms=float(p[7]),
                queue_ms=float(p[8]), parse_ms=float(p[9]),
                prepare_ms=float(p[10]), search_ms=float(p[11])))
    writes = []
    with open(prefix + ".updates") as f:
        for line in f:
            due, send, recv, ok = line.split()
            writes.append((int(due), int(send), int(recv), ok == "1"))
    with open(prefix + ".pairs") as f:
        lines = f.read().splitlines()
    pairs = list(zip(lines[0::2], lines[1::2]))
    return records, writes, pairs


def warm(daemon, requests):
    """Prepares every distinct query once (cheap why-so-many) so the timed
    phase starts from a warm prepared cache."""
    seen = set()
    conn = daemon.connect()
    try:
        for line in requests:
            q = json.loads(line)["query"]
            if q in seen:
                continue
            seen.add(q)
            msg = json.dumps({"id": 0, "question": "whysomany", "query": q,
                              "target_k": 1000000})
            conn.call(msg.encode() + b"\n")
    finally:
        conn.close()


# ------------------------------------------------------------- metrics ----

def quantile(sorted_vals, q):
    """Nearest-rank quantile of an ascending list."""
    if not sorted_vals:
        return 0.0
    k = max(0, min(len(sorted_vals) - 1,
                   int(-(-q * len(sorted_vals) // 1)) - 1))
    return sorted_vals[k]


def tail(sorted_vals, ceiling):
    """The highest percentile up to `ceiling` with at least 10 samples
    beyond it. The ceiling is fixed per workload from its expected sample
    count, so every run of a workload reports the same percentile."""
    n = len(sorted_vals)
    for p in TAIL_PERCENTILES:
        if p <= ceiling and n * (1 - p / 100.0) >= 10:
            return p, quantile(sorted_vals, p / 100.0)
    return 50.0, quantile(sorted_vals, 0.5)


def check_answers(tool_path, indir, pairs, corrupt=False):
    """perfbench_tool check over the distinct answers; returns the verdicts
    in answer-index order."""
    path = os.path.join(indir, "check.jsonl")
    with open(path, "w") as f:
        for n, (req, resp) in enumerate(pairs):
            if corrupt and n == 0:
                resp = corrupt_answer(resp)
            f.write(req + "\n" + resp + "\n")
    out = tool(tool_path, "check", "--dir=" + indir, "--pairs=" + path)
    return [json.loads(l) for l in out.splitlines() if l.strip()]


def corrupt_answer(resp_line):
    """A deliberately wrong answer for the self-test."""
    d = json.loads(resp_line)
    a = d.get("answer", {})
    if "closeness" in a:
        a["closeness"] = a["closeness"] + 0.25
    elif "before" in a:
        a["before"] = a["before"] + 1
    else:
        a["found"] = not a.get("found", False)
    return json.dumps(d)


def windowed(records, good, window):
    """Windows of `window` consecutive draws of the shared sequence: a
    closed loop draws as fast as it completes, so window k lasts from the
    send of its first draw to the send of the next window's first draw.
    Returns the ok answers per second of each complete window, and the
    ascending ok latencies (ms) of each complete window that has any."""
    starts = {}
    oks = {}
    for r, ok in zip(records, good):
        k = r["draw"] // window
        if r["draw"] % window == 0:
            starts[k] = r["send"]
        oks[k] = oks.get(k, 0) + ok
    complete = sorted(k for k in starts if k + 1 in starts)
    rates = [oks.get(k, 0) / max((starts[k + 1] - starts[k]) / 1e9, 1e-9)
             for k in complete]
    lats = {k: [] for k in complete}
    for r, ok in zip(records, good):
        k = r["draw"] // window
        if ok and k in lats:
            lats[k].append((r["recv"] - r["send"]) / 1e6)
    return rates, [sorted(lats[k]) for k in complete if lats[k]]


def summarize(gen, records, writes, verdicts):
    """End-to-end figures of the timed phase. Throughput is the median over
    windows of the shared request sequence (whole passes over the pool, or
    fixed draw counts for serve_update's Zipf draws), so a burst of host
    noise moves a few windows, not the figure. The latency percentiles are
    taken over the requests of all complete windows at once when a window
    is a pass over the pool: a pass holds every question once, so the p50
    sits between the same two questions on every run; one window's p50 is
    a single question's latency and flips between neighbours, and a
    partial last pass tips the run's p50 to either side of a gap between
    them. Windows of a fixed number of random draws (serve_update) are
    samples of one distribution instead, so there each percentile is the
    median over windows of that window's percentile: pooled, a few seconds
    of host noise filled the tail and moved the run's p99 by a fifth."""
    window = gen["window"] or gen["requests"]
    good = []
    ok_lat, wire_over = [], []
    stages = {"queue_ms": [], "prepare_ms": [], "search_ms": []}
    for r in records:
        v = verdicts[r["answer"]] if r["answer"] >= 0 else None
        good.append(r["ok"] and not r["truncated"] and v is not None and
                    v["ok"])
        if not good[-1]:
            continue
        lat = (r["recv"] - r["send"]) / 1e6
        ok_lat.append(lat)
        wire_over.append(lat - r["latency_ms"])
        for k in stages:
            stages[k].append(r[k])
    failed = good.count(False)
    upd_lat, late = [], []
    for due, send, recv, ok in writes:
        if not ok:
            failed += 1
            continue
        upd_lat.append((recv - due) / 1e6)
        late.append((send - due) / 1e6)
    attempted = len(records) + len(writes)
    upd_lat.sort()
    wins, win_lats = windowed(records, good, window)
    # A smoke run may complete no window.
    lat = sorted(x for w in win_lats for x in w) or sorted(ok_lat)
    per = "%d windows of %d draws" % (len(wins), window)
    if gen["window"] and win_lats:
        tail_p = min(tail(w, gen["tail_ceiling"])[0] for w in win_lats)
        p50 = statistics.median(statistics.median(w) for w in win_lats)
        tail_v = statistics.median(quantile(w, tail_p / 100.0)
                                   for w in win_lats)
        how = "median over %s of each window's " % per
        lat_notes = (how + "p50", how + "p%g" % tail_p)
    else:
        tail_p, tail_v = tail(lat, gen["tail_ceiling"])
        p50 = statistics.median(lat) if lat else 0.0
        lat_notes = ("over " + per, "p%g over %s" % (tail_p, per))
    why = [v for v in verdicts if v["why_family"]]
    m = {
        "throughput_rps": statistics.median(wins) if wins else 0.0,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail_v,
        "error_rate": failed / max(attempted, 1),
    }
    counts = {"throughput_rps": len(ok_lat), "latency_p50_ms": len(lat),
              "latency_tail_ms": len(lat), "error_rate": attempted}
    notes = {"throughput_rps": "median of " + per,
             "latency_p50_ms": lat_notes[0],
             "latency_tail_ms": lat_notes[1]}
    if why:
        m["closeness_mean"] = statistics.fmean(v["closeness"] for v in why)
        m["rewrite_cost_mean"] = statistics.fmean(v["cost"] for v in why)
        counts["closeness_mean"] = counts["rewrite_cost_mean"] = len(why)
        notes["closeness_mean"] = "over distinct answers"
    if gen["updates"]:
        up, uv = tail(upd_lat, 99.0)
        m["update_p50_ms"] = quantile(upd_lat, 0.5)
        m["update_tail_ms"] = uv
        counts["update_p50_ms"] = counts["update_tail_ms"] = len(upd_lat)
        notes["update_tail_ms"] = "p%g" % up
        notes["update_p50_ms"] = "from due time; writer lateness p50 " \
            "%.3f ms, max %.3f ms" % (quantile(sorted(late), 0.5),
                                     max(late) if late else 0.0)
    return dict(metrics=m, counts=counts, notes=notes, failed=failed,
                attempted=attempted, wire_over=wire_over, stages=stages)


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


# ---------------------------------------------------------------- runs ----

def prepare_inputs(tool_path, workload, seed, seconds, limit=None):
    indir = os.path.join(OUT, "%s-seed%d" % (workload, seed))
    os.makedirs(indir, exist_ok=True)
    args = ["gen", "--workload=" + workload,
            "--universe=" + os.path.join(HERE, "data", workload + ".jsonl"),
            "--dir=" + indir, "--seconds=%r" % seconds]
    if limit is not None:
        args.append("--limit=%d" % limit)
    gen = json.loads(tool(tool_path, *args))
    with open(os.path.join(indir, "requests.jsonl")) as f:
        requests = [l.strip() for l in f if l.strip()]
    return indir, gen, requests


def measure(cli, tool_path, workload, seed, seconds, trace, limit=None,
            corrupt=False):
    indir, gen, requests = prepare_inputs(tool_path, workload, seed, seconds,
                                          limit)
    graph = os.path.join(indir, "graph.txt")
    log("%s: %d nodes, %d requests, %d update batches (gen %.0f ms)" % (
        workload, gen["nodes"], gen["requests"], gen["updates"],
        gen["gen_ms"]))

    setups = []
    daemon = None
    for _ in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        daemon, s = start_daemon(cli, graph, gen)
        setups.append(s)
    try:
        warm(daemon, requests)
        before = stats_counters(daemon)
        records, writes, pairs = run_load(tool_path, daemon, indir, workload,
                                          seconds, seed)
        after = stats_counters(daemon)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    verdicts = check_answers(tool_path, indir, pairs, corrupt)
    summ = summarize(gen, records, writes, verdicts)
    digest = hashlib.sha256("\n".join(
        sorted("%s\t%s" % p for p in pairs)).encode()).hexdigest()
    m = dict(summ["metrics"], setup_s=statistics.median(setups),
             peak_rss_mb=rss)
    counts = dict(summ["counts"], setup_s=len(setups), peak_rss_mb=1)
    result = dict(workload=workload, metrics=m, counts=counts,
                  notes=summ["notes"], failed=summ["failed"],
                  attempted=summ["attempted"],
                  check_failures=[v for v in verdicts if not v["ok"]],
                  digest=digest[:16], distinct=len(pairs))
    if trace:
        result.update(traced_layers(tool_path, workload, seed, indir,
                                    records, summ, after, before))
    shutil.rmtree(indir)  # inputs and load records; the spans file stays
    return result


def traced_layers(tool_path, workload, seed, indir, records, summ, after,
                  before):
    """Per-layer metrics of a traced run: the (P) replay, the (R) daemon
    figures and the (D) client differences, plus the merged span file.
    The client spans are built here from the load records, which an
    untraced run records too, so tracing adds nothing at request time."""
    spans_path = os.path.join(OUT, "%s-seed%d-spans.json" % (workload, seed))
    replay_spans = spans_path + ".replay"
    replay = json.loads(tool(tool_path, "replay", "--workload=" + workload,
                             "--dir=" + indir, "--spans=" + replay_spans))
    with open(replay_spans) as f:
        spans = json.load(f)
    os.remove(replay_spans)
    next_id = max((sp["id"] for sp in spans), default=0) + 1
    for n, r in enumerate(records):
        rid = "client/%d" % n
        root = next_id
        next_id += 1
        start, end = r["send"] / 1e6, r["recv"] / 1e6
        spans.append(dict(id=root, parent=0, name="client.request",
                          request=rid, start_ms=start, end_ms=end))
        if r["answer"] < 0:
            continue
        # The daemon's reported stages, placed after half the wire time.
        at = start + max(0.0, (end - start) - r["latency_ms"]) / 2.0
        for stage in ("queue", "parse", "prepare", "search"):
            dur = r[stage + "_ms"]
            spans.append(dict(id=next_id, parent=root,
                              name="daemon." + stage, request=rid,
                              start_ms=at, end_ms=at + dur))
            next_id += 1
            at += dur
    with open(spans_path, "w") as f:
        json.dump(spans, f)

    delta = {k: after[k] - before[k] for k in after}
    lookups = delta["cache_hits"] + delta["cache_misses"]
    layer = {k: replay[k] for k, _ in PER_LAYER if k in replay}
    layer.update({
        "server.wire_overhead_ms": statistics.median(summ["wire_over"])
        if summ["wire_over"] else 0.0,
        "server.rejected": delta["server_rejected"],
        "service.queue_ms": mean(summ["stages"]["queue_ms"]),
        "service.search_ms": mean(summ["stages"]["search_ms"]),
        "service.prepare_ms": mean(summ["stages"]["prepare_ms"]),
        "service.cache_hit_ratio": delta["cache_hits"] / lookups
        if lookups else 0.0,
        "service.cache_invalidated": delta["cache_invalidated"],
        "service.cache_rekeyed": delta["cache_rekeyed"],
    })
    return dict(layer=layer, reconciled=replay["reconciled"],
                reconcile_error=replay["reconcile_error"],
                spans_path=os.path.relpath(spans_path, ROOT),
                span_count=len(spans))


def report(result, prov):
    w = result["workload"]
    print("provenance %s" % json.dumps(prov, sort_keys=True))
    print("%s answers: %d distinct, digest %s" % (
        w, result["distinct"], result["digest"]))
    units = dict(E2E + REPORT_ONLY)
    for name, _ in E2E + REPORT_ONLY:
        if name not in result["metrics"]:
            continue
        note = result["notes"].get(name)
        print("%s %-22s %14.6f %-6s n=%d%s" % (
            w, name, result["metrics"][name], units[name],
            result["counts"][name], "  (%s)" % note if note else ""))
    if "layer" in result:
        for name, unit in PER_LAYER:
            print("%s %-32s %14.6f %s" % (w, name, result["layer"][name],
                                           unit))
        print("%s %d spans written to %s; replay reconciled: %s %s" % (
            w, result["span_count"], result["spans_path"],
            result["reconciled"], result["reconcile_error"]))
        print("%s tracing overhead at request time: 0 by construction (the "
              "client spans come from the load records an untraced run "
              "keeps too; the replay runs after the daemon stops)" % w)
    for v in result["check_failures"][:5]:
        print("%s answer check FAILED: %s" % (w, v["error"]))


def result_line(result, prov, trace):
    correct = (not result["check_failures"] and prov["valid"] and
               result["failed"] == 0 and
               (not trace or result["reconciled"]))
    if trace:
        metrics = {n: {"value": result["layer"][n], "unit": u}
                   for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": result["metrics"][n], "unit": u}
                   for n, u in E2E}
    return correct, json.dumps({"correct": correct,
                                "attempted": result["attempted"],
                                "failed": result["failed"],
                                "metrics": metrics})


def smoke(cli, tool_path):
    """Tiny runs of every workload in both modes: every metric name must be
    printed with its unit, and a corrupted answer must be caught."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = measure(cli, tool_path, workload, seed=1, seconds=1.0,
                        trace=trace, limit=4)
            _, line = result_line(r, {"valid": True}, trace)
            got = json.loads(line)["metrics"]
            for n, u in (PER_LAYER if trace else E2E):
                if n not in got or got[n]["unit"] != u:
                    problems.append("%s trace=%d: metric %s missing" % (
                        workload, trace, n))
            if trace and not r["reconciled"]:
                problems.append("%s: replay did not reconcile: %s" % (
                    workload, r["reconcile_error"]))
            if r["check_failures"] or r["failed"]:
                problems.append("%s trace=%d: %d failures" % (
                    workload, trace, r["failed"]))
        bad = measure(cli, tool_path, workload, seed=1, seconds=1.0,
                      trace=0, limit=4, corrupt=True)
        if not bad["check_failures"] or bad["failed"] == 0:
            problems.append("%s: corrupted answer was not caught" % workload)
        log("smoke %s: %s" % (workload, "ok" if not problems else problems))
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: tiny runs of every workload")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        cli, tool_path = build()
        os.makedirs(OUT, exist_ok=True)
        if args.smoke:
            return smoke(cli, tool_path)
        prov = provenance(tool_path, args.seed)
        result = measure(cli, tool_path, args.workload, args.seed,
                         args.seconds, args.trace)
    except (BenchError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    report(result, prov)
    correct, line = result_line(result, prov, args.trace)
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
