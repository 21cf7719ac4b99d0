#!/usr/bin/env python3
"""The verdict benchmark: time-to-verdict of the julie verifier on three
workloads, with an optional traced run that splits it into layers.

    python3 perfbench/run.py --workload cold-gpo --seed 1 --seconds 20 --trace 0

Run it from the root of the repository.  It builds `julie` and the
benchmark's helpers (perfbench/tool) with dune, generates the seeded
questions, drives the real binary or daemon for --seconds, checks every
verdict against independently computed expectations, and prints one
JSON object as the last line of standard output.  A human-readable
report goes to standard error; traces and ledgers to .bench_out/.

Workloads (see README.md for why each exists):
  cold-gpo     one `julie certify|safety -e gpo -j 1` process per question,
               closed loop
  serve-hot    one `julie serve -j 1 --cache-dir` daemon with a pre-seeded
               journal, Zipf-repeating stream, open loop at a fixed rate
               after a closed-loop capacity phase
  serve-mixed  one `julie serve -j 2 --cache-dir` daemon, batches of 2-4
               distinct questions over mixed engines, closed loop

--trace 0 reports the end-to-end metrics; --trace 1 replays the same
questions in-process with spans around each library call and reports
the per-layer metrics.  Exit status: 0 when every verdict is right,
1 when a verdict is wrong or a violation is uncertified, 2 when the
benchmark cannot run.
"""

import argparse
import collections
import gc
import json
import os
import platform
import random
import select
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

JULIE = os.path.join("_build", "default", "bin", "julie.exe")
BENCHGEN = os.path.join("_build", "default", "perfbench", "tool", "benchgen.exe")
BENCHTRACE = os.path.join("_build", "default", "perfbench", "tool", "benchtrace.exe")
WORK_ROOT = ".bench_work"
OUT_ROOT = ".bench_out"

# Kept aside for later gain claims: never used while tuning a change.
HELD_OUT_SEED = 9001

WORKLOADS = ("cold-gpo", "serve-hot", "serve-mixed")

# The latency limit a verdict must meet to count as in limit.
LIMIT_S = {"cold-gpo": 2.0, "serve-hot": 0.025, "serve-mixed": 2.0}

# serve-hot's open loop offers a fixed 2000 requests/s, about a third of
# the daemon's capacity here.  At 250/s every request found the daemon
# idle, and the VM's wake-up latency from idle made p90 and p99 swing
# two- to fivefold between runs.
HOT_RATE = 2000.0
HOT_WINDOW = 8  # requests outstanding in serve-hot's capacity phase
HOT_WARMUP_SHARE = 0.05  # of --seconds: warm-up before the capacity phase
HOT_CAPACITY_SHARE = 0.25  # of --seconds: the capacity phase
HOT_LATENCY_SHARE = 0.35  # of --seconds: one request at a time
HOT_FRESH_SHARE = 0.05  # share of serve-hot's open-loop requests that are fresh nets
HOT_FRESH_CHUNK = 4000  # fresh nets drawn at a time once the stock is spent
HOT_ZIPF_S = 1.0  # Zipf exponent over the serve-hot pool
JOB_TIMEOUT_S = 10.0  # per-job budget sent with every serve job
# The measurement is cut into cycles of about this many seconds, with
# SETUPS_PER_CYCLE timed set-ups after each: the host's speed drifts by a
# quarter over ten seconds or so, and what is sampled all through a run
# reads the average of that drift, not one point of it.
CYCLE_S = 3.0
SETUPS_PER_CYCLE = 2
LEDGER_TOLERANCE = 0.05  # share of the round trip a residual may stray by
REPLAY_BLOCKS = 24  # blocks the traced run's replay passes are interleaved in

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("in_limit_share", "ratio"),
    ("cpu_s_per_verdict", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("petri.parse_s", "s"),
    ("petri.digest_s", "s"),
    ("petri.print_s", "s"),
    ("petri.monitor_s", "s"),
    ("gpn.analyse_s", "s"),
    ("gpn.scan_s", "s"),
    ("gpn.fire_s", "s"),
    ("gpn.deviations_scheduled", "count"),
    ("gpn.restarts", "count"),
    ("gpn.states", "count"),
    ("worldset.memo_hit_ratio", "ratio"),
    ("reach.explore_s", "s"),
    ("reach.states", "count"),
    ("stubborn.explore_s", "s"),
    ("stubborn.closures", "count"),
    ("bdd.analyse_s", "s"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.op_cache_hit_ratio", "ratio"),
    ("reduce.run_s", "s"),
    ("reduce.ratio", "ratio"),
    ("reduce.lift_s", "s"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("par.busy_share", "ratio"),
    ("portfolio.run_s", "s"),
    ("portfolio.overhead_ratio", "ratio"),
    ("portfolio.cancelled_losers", "count"),
    ("certify.replay_s", "s"),
    ("certify.accepted", "count"),
    ("cache.find_hit_s", "s"),
    ("cache.find_miss_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.store_s", "s"),
    ("journal.bytes_per_store", "B"),
    ("cache.recover_s", "s"),
    ("cache.recovered", "count"),
    ("report.json_s", "s"),
    ("protocol.encode_s", "s"),
    ("protocol.decode_s", "s"),
    ("protocol.request_bytes", "B"),
    ("protocol.response_bytes", "B"),
    ("scheduler.submit_s", "s"),
    ("transport_s", "s"),
    ("server.wait_s", "s"),
    ("cli.overhead_s", "s"),
    ("daemon.cache_hits", "count"),
    ("daemon.cache_misses", "count"),
    ("daemon.journal_appends", "count"),
    ("daemon.jobs_failed", "count"),
    ("daemon.rejected", "count"),
    ("unattributed_share", "ratio"),
    ("obs.trace_overhead_share", "ratio"),
]


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------
# Build and provenance


def check_checkout():
    for path in ("dune-project", os.path.join("bin", "julie.ml"), "lib"):
        if not os.path.exists(path):
            raise BenchError(
                "run from the repository root: %s is missing" % path)


def build(trace):
    targets = [JULIE, BENCHGEN] + ([BENCHTRACE] if trace else [])
    targets = [os.path.relpath(t, os.path.join("_build", "default")) for t in targets]
    r = subprocess.run(["dune", "build", "--root", "."] + targets,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace"))


def capture(cmd):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           timeout=10)
        return r.stdout.decode().strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def provenance():
    sha = capture(["git", "rev-parse", "HEAD"])
    dirty = None
    if sha is not None:
        porcelain = capture(["git", "status", "--porcelain"])
        dirty = bool(porcelain) if porcelain is not None else None
    return {
        "nproc": os.cpu_count(),
        "os": platform.platform(),
        "ocaml": capture(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
        "git_sha": sha or "unknown",
        "dirty": dirty,
        "dune_profile": "dev",
        "held_out_seed": HELD_OUT_SEED,
    }


# --------------------------------------------------------------------
# Inputs


def timed(f):
    t0 = time.perf_counter()
    v = f()
    return v, time.perf_counter() - t0


def generate(workload, seed, work):
    path = os.path.join(work, "questions.json")
    r = subprocess.run([BENCHGEN, "gen", workload, str(seed), path],
                       stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise BenchError("input generation failed: " + r.stderr.decode())
    with open(path) as f:
        return json.load(f)


class Inputs:
    def __init__(self, doc, work=None):
        self.doc = doc
        self.work = work
        self.chunks = 0
        self.texts = {n["id"]: n["text"] for n in doc["nets"]}
        self.questions = {q["id"]: q for q in doc["questions"]}

    def text(self, qid):
        return self.texts[self.questions[qid]["net"]]

    def more_fresh(self):
        """The next chunk of serve-hot's fresh nets, drawn when the stock
        runs out: a faster program asks more questions in a run."""
        self.chunks += 1
        path = os.path.join(self.work, "fresh-%d.json" % self.chunks)
        r = subprocess.run([BENCHGEN, "fresh", str(self.doc["seed"]), str(self.chunks),
                            str(HOT_FRESH_CHUNK), path], stderr=subprocess.PIPE)
        if r.returncode != 0:
            raise BenchError("fresh net generation failed: " + r.stderr.decode())
        with open(path) as f:
            doc = json.load(f)
        for key in ("nets", "questions"):
            self.doc[key] = self.doc[key] + doc[key]
        self.texts.update((n["id"], n["text"]) for n in doc["nets"])
        self.questions.update((q["id"], q) for q in doc["questions"])
        return doc["fresh"]


def cold_cycles(inputs, seed):
    """The pool in a fresh seeded order per cycle, one question a request."""
    rng = random.Random(seed * 7919 + 1)
    pool = list(inputs.doc["pool"])
    while True:
        rng.shuffle(pool)
        yield [[qid] for qid in pool]


def cold_stream(inputs, seed):
    for cycle in cold_cycles(inputs, seed):
        yield from cycle


def zipf_ranks(inputs):
    """Pool questions in popularity order, chosen by text size alone:
    positions of the size-sorted questions in van der Corput order (1/2,
    1/4, 3/4, 1/8, ...), so the popular ranks span the size range.  The
    family instances come first: their nets are the same for every seed,
    so the ranks that carry most of the traffic (the first twenty, 83%
    of it) ask the same questions whatever the seed, and the seeded
    covers and random nets take the rest."""
    def spread(qids):
        pool = sorted(qids, key=lambda q: (-len(inputs.text(q)), q))
        order, seen, k = [], set(), 1
        while len(order) < len(pool):
            x, f, v = k, 0.5, 0.0
            while x:
                v += f * (x & 1)
                x >>= 1
                f /= 2
            i = int(v * len(pool))
            while i in seen:
                i = (i + 1) % len(pool)
            seen.add(i)
            order.append(pool[i])
            k += 1
        return order

    pool = inputs.doc["pool"]
    known = [q for q in pool if inputs.questions[q]["expect"] is not None]
    return spread(known) + spread([q for q in pool if q not in known])


def hot_stream(inputs, seed, fresh_share=HOT_FRESH_SHARE):
    """Zipf-repeating requests over the pool; a share of fresh random
    nets, each asked once."""
    rng = random.Random(seed * 7919 + (2 if fresh_share else 5))
    pool = zipf_ranks(inputs)
    cum, acc = [], 0.0
    for k in range(len(pool)):
        acc += 1.0 / (k + 1) ** HOT_ZIPF_S
        cum.append(acc)
    fresh = iter(inputs.doc["fresh"])
    while True:
        if rng.random() < fresh_share:
            qid = next(fresh, None)
            if qid is None:
                fresh = iter(inputs.more_fresh())
                qid = next(fresh)
            yield [qid]
        else:
            yield rng.choices(pool, cum_weights=cum)[0:1]


def mixed_stream(inputs, seed):
    for batch in inputs.doc["batches"]:
        yield batch
    raise BenchError("serve-mixed ran out of distinct questions")


STREAMS = {"cold-gpo": cold_stream, "serve-hot": hot_stream,
           "serve-mixed": mixed_stream}


def expected_verdicts(inputs, qids, work):
    """Expected verdict of every question: the family's known answer, or
    the oracle's (explicit exploration cross-checked with stubborn and
    symbolic runs, never the engine being measured)."""
    expect, checks = {}, {}
    for qid in set(qids):
        q = inputs.questions[qid]
        if q["expect"] is not None:
            expect[qid] = q["expect"]
        else:
            key = q["net"] + "|" + ",".join(q["cover"])
            checks.setdefault(key, {"key": key, "text": inputs.texts[q["net"]],
                                    "cover": q["cover"]})
    if checks:
        # After the measurement, so the oracle may use every CPU.
        shards = max(1, min(len(ALL_CPUS) or 1, len(checks)))
        items = list(checks.values())
        procs = []
        for k in range(shards):
            inp = os.path.join(work, "oracle-in-%d.json" % k)
            out = os.path.join(work, "oracle-out-%d.json" % k)
            with open(inp, "w") as f:
                json.dump(items[k::shards], f)
            procs.append((out, subprocess.Popen([BENCHGEN, "oracle", inp, out],
                                                stderr=subprocess.PIPE,
                                                preexec_fn=any_cpu)))
        answers = {}
        for out, p in procs:
            err = p.communicate()[1]
            if p.returncode != 0:
                raise BenchError("oracle failed: " + err.decode())
            with open(out) as f:
                answers.update(json.load(f))
        for qid in set(qids):
            q = inputs.questions[qid]
            if q["expect"] is None:
                expect[qid] = answers[q["net"] + "|" + ",".join(q["cover"])]
    return expect


# --------------------------------------------------------------------
# The daemon and its wire protocol


def send_frame(sock, obj):
    data = json.dumps(obj, separators=(",", ":")).encode()
    sock.sendall(struct.pack(">I", len(data)) + data)


def recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("connection closed")
        buf += chunk
    return bytes(buf)


def recv_raw(sock):
    (n,) = struct.unpack(">I", recv_exact(sock, 4))
    return recv_exact(sock, n)


def recv_frame(sock):
    return json.loads(recv_raw(sock))


def job_json(inputs, qid):
    q = inputs.questions[qid]
    return {"id": qid, "net": {"inline": inputs.texts[q["net"]]},
            "cover": q["cover"], "engine": q["engine"], "max_states": 5000000,
            "witness": True, "reduce": q["reduce"], "jobs": 1,
            "timeout_s": JOB_TIMEOUT_S, "mem_mb": None}


def submit_frame(inputs, batch):
    return {"op": "submit", "jobs": [job_json(inputs, qid) for qid in batch]}


FRAMES = {}


def encoded_frame(inputs, batch):
    """The length-prefixed request frame, encoded once per distinct batch
    so the generator's own JSON work stays out of the measured loop."""
    key = tuple(batch)
    if key not in FRAMES:
        data = json.dumps(submit_frame(inputs, batch), separators=(",", ":")).encode()
        FRAMES[key] = struct.pack(">I", len(data)) + data
    return FRAMES[key]


def read_results(batch, response):
    """(qid, kind, verdict, certified) per job of a batch."""
    if not response.get("ok"):
        kind = stats.REJECTED if "reject" in response else stats.ERROR
        return [(qid, kind, None, None) for qid in batch]
    out = []
    for qid, r in zip(batch, response["results"]):
        report = r.get("report")
        if r.get("status") != "ok" or not isinstance(report, dict):
            out.append((qid, stats.ERROR, None, None))
            continue
        if report.get("deadlock"):
            v = "violated"
        elif report.get("truncated"):
            v = "inconclusive"
        else:
            v = "holds"
        out.append((qid, "verdict", v, r.get("certified")))
    return out


def cpus():
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


# CPU placement, when there are two CPUs or more.  cold-gpo: the
# generator keeps to the first CPU and each julie process to the others.
# serve-hot: generator and daemon share the first CPU; on a 2-vCPU VM
# the wake-ups across CPUs made the open loop's tail swing threefold
# from run to run, and sharing one CPU spares every such wake-up.
# serve-mixed: the daemon runs two worker domains and gets every CPU.
ALL_CPUS = cpus()
VERIFIER_CPUS = None


def pin(workload):
    global VERIFIER_CPUS
    if workload == "serve-mixed" or len(ALL_CPUS) < 2:
        return
    os.sched_setaffinity(0, ALL_CPUS[:1])
    VERIFIER_CPUS = ALL_CPUS[1:] if workload == "cold-gpo" else ALL_CPUS[:1]


def verifier_affinity():
    if VERIFIER_CPUS is not None:
        os.sched_setaffinity(0, VERIFIER_CPUS)


def any_cpu():
    if ALL_CPUS:
        os.sched_setaffinity(0, ALL_CPUS)


class Daemon:
    def __init__(self, work, tag, jobs, cache_dir):
        self.sock_path = os.path.join(work, tag + ".sock")
        self.proc = subprocess.Popen(
            [JULIE, "serve", "-j", str(jobs), "--cache-dir", cache_dir,
             "--socket", self.sock_path],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            preexec_fn=verifier_affinity)
        self.rusage = None

    def connect(self, timeout=60.0):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(timeout)
        s.connect(self.sock_path)
        return s

    def request(self, obj):
        with self.connect() as s:
            send_frame(s, obj)
            return recv_frame(s)

    def wait_ready(self, limit_s=30.0):
        """Sleep on the daemon's own "listening on" line, then ping it:
        no polling that would compete with the start-up it times."""
        t_end = time.perf_counter() + limit_s
        fd = self.proc.stdout.fileno()
        seen = b""
        while b"listening on" not in seen:
            left = t_end - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("julie serve did not start listening")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError("julie serve exited during start-up")
            seen += chunk
        if not self.request({"op": "ping"}).get("pong"):
            raise BenchError("julie serve did not answer a ping")

    def stats(self):
        return self.request({"op": "stats"}).get("stats", {})

    def check(self):
        """Stop the run, with the cause, if the daemon has died."""
        code = self.proc.poll()
        if code is not None:
            raise BenchError("julie serve died during the run (%s)" % (
                "signal %d" % -code if code < 0 else "exit %d" % code))

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request({"op": "shutdown"})
            except OSError:
                pass
        try:
            _, status, ru = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rusage = ru
        except ChildProcessError:
            pass
        self.proc.stdout.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_daemon(work, tag, jobs, pristine):
    """Launch a daemon on a private copy of the journal `pristine` (or an
    empty cache) and return it with its start-up time: launch, journal
    recovery, first answered ping."""
    cache = os.path.join(work, tag)
    os.makedirs(cache)
    if pristine is not None:
        shutil.copy(pristine, os.path.join(cache, "results.journal"))
    t0 = time.perf_counter()
    d = Daemon(work, tag, jobs, cache)
    try:
        d.wait_ready()
    except BaseException:
        d.kill()
        raise
    return d, time.perf_counter() - t0


class Setups:
    """setup_s: the median of set-ups spread over the whole run, one
    before the measurement (the one the measurement uses) and
    SETUPS_PER_CYCLE after each of its cycles.  launch(tag) performs one
    set-up and returns what it made and its time; discard(made) undoes
    it."""

    def __init__(self, launch, discard):
        self.launch, self.discard = launch, discard
        self.times = []

    def first(self):
        made, t = self.launch("setup-0")
        self.times.append(t)
        return made

    def sample(self):
        """SETUPS_PER_CYCLE set-ups; the wall time they took."""
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_CYCLE):
            made, t = self.launch("setup-%d" % len(self.times))
            self.times.append(t)
            self.discard(made)
        return time.perf_counter() - t0

    def median(self):
        return statistics.median(self.times)

    def note(self, what):
        return "%s, median of %d set-ups spread over the run, %.2f-%.2f ms" % (
            what, len(self.times), min(self.times) * 1e3, max(self.times) * 1e3)


def daemon_setups(work, jobs, pristine, live):
    def launch(tag):
        d, t = start_daemon(work, tag, jobs, pristine)
        live.append(d)
        return d, t

    return Setups(launch, Daemon.stop)


def cycles_of(seconds):
    return max(1, round(seconds / CYCLE_S))


def preseed_journal(inputs, work, live):
    """The serve-hot journal: every pool question answered once by a
    daemon that is then shut down cleanly."""
    d, _ = start_daemon(work, "preseed", 1, None)
    live.append(d)
    pool = inputs.doc["pool"]
    r = d.request(submit_frame(inputs, pool))
    bad = [x for x in read_results(pool, r) if x[1] != "verdict"]
    if bad:
        raise BenchError("pre-seeding the journal failed: %r" % (bad[:3],))
    d.stop()
    return os.path.join(work, "preseed", "results.journal")


def daemon_counts(st):
    counters = st.get("metrics", {}).get("counters", {})
    return {
        "daemon.cache_hits": counters.get("serve.cache.hit", 0),
        "daemon.cache_misses": counters.get("serve.cache.miss", 0),
        "daemon.journal_appends": counters.get("serve.journal.appends", 0),
        "daemon.jobs_failed": counters.get("serve.jobs.failed", 0),
        "daemon.rejected": counters.get("serve.rejected", 0),
    }


def lost(batch):
    return [(qid, stats.TRANSPORT, None, None) for qid in batch]


def closed_loop(d, inputs, stream, seconds, record, window=1):
    """One connection with `window` requests outstanding: each reply
    releases the next request.  Calls record(batch, results, latency)
    per request, latency from its send to its reply; returns the number
    of requests answered and the elapsed time.  With one request at a
    time the client reads each answer before it asks again, as a client
    that uses the answer would; with more outstanding, replies are
    decoded once the loop is over, so the generator's JSON work does
    not sit between the daemon's replies."""
    pending = collections.deque()
    got, n = [], 0

    def flush():
        for batch, raw, lat in got:
            record(batch, read_results(batch, json.loads(raw)), lat)
        got.clear()

    with d.connect() as s:
        t0 = time.perf_counter()
        t_end = t0 + seconds
        while True:
            while len(pending) < window and (n == 0 or time.perf_counter() < t_end):
                batch = next(stream, None)
                if batch is None:
                    break
                s.sendall(encoded_frame(inputs, batch))
                pending.append((batch, time.perf_counter()))
            if not pending:
                break
            batch, sent = pending.popleft()
            try:
                raw = recv_raw(s)
            except (OSError, ValueError):
                pending.appendleft((batch, sent))
                break
            got.append((batch, raw, time.perf_counter() - sent))
            n += 1
            if window == 1:
                flush()
        elapsed = time.perf_counter() - t0
    flush()
    for batch, _ in pending:
        record(batch, lost(batch), None)
    return n, elapsed


def open_loop(d, inputs, stream, rate, seconds, record):
    """One connection, a sender (this thread) and a receiver thread.
    Request i is due at t0 + i/rate whether or not earlier replies came
    back; its latency runs from its due time to its reply.  Returns how
    late the sender was behind the schedule, per request."""
    count = max(1, int(rate * seconds))
    batches = [next(stream) for _ in range(count)]
    frames = [encoded_frame(inputs, b) for b in batches]
    done = [None] * count
    late = []
    with d.connect() as s:
        def receiver():
            try:
                for i in range(count):
                    raw = recv_raw(s)
                    done[i] = (time.perf_counter(), raw)
            except (OSError, ValueError):
                pass

        rx = threading.Thread(target=receiver)
        t0 = time.perf_counter() + 0.01
        due = [t0 + i / rate for i in range(count)]
        rx.start()
        try:
            for i, data in enumerate(frames):
                wait = due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                late.append(max(0.0, time.perf_counter() - due[i]))
                s.sendall(data)
        except OSError:
            pass
        rx.join(timeout=max(60.0, seconds * 3))
        if rx.is_alive():
            s.shutdown(socket.SHUT_RDWR)
            rx.join()
    for i, b in enumerate(batches):
        if done[i] is None:
            record(b, lost(b), None)
        else:
            record(b, read_results(b, json.loads(done[i][1])), done[i][0] - due[i])
    return late


# --------------------------------------------------------------------
# Workloads, end to end


class Tally:
    """Every attempted verdict: (qid, kind, verdict, certified, latency)."""

    def __init__(self):
        self.rows = []

    def record(self, batch, results, latency):
        for qid, kind, v, cert in results:
            self.rows.append((qid, kind, v, cert, latency))

    def wrong(self, inputs, expect):
        """One line per question answered wrongly, for the report."""
        lines = {}
        for qid, kind, v, cert, _ in self.rows:
            if kind == "verdict" and stats.classify(v, expect[qid], cert) == stats.WRONG:
                q = inputs.questions[qid]
                lines[qid] = "%s: net %s, cover [%s], engine %s%s: got %s%s, expected %s" % (
                    qid, q["net"], " ".join(q["cover"]), q["engine"],
                    " --reduce" if q["reduce"] else "", v,
                    " (uncertified)" if v == "violated" and cert is not True else "",
                    expect[qid])
        return sorted(lines.values())

    def outcomes(self, expect):
        out = []
        for qid, kind, v, cert, lat in self.rows:
            o = stats.classify(v, expect[qid], cert) if kind == "verdict" else kind
            out.append((lat if lat is not None else float("inf"), o))
        return out


def cold_cmd(inputs, qid, net_path):
    q = inputs.questions[qid]
    if q["cover"]:
        cmd = [JULIE, "safety", "-e", "gpo", "-j", "1", "-f", net_path]
        for p in q["cover"]:
            cmd += ["-p", p]
        return cmd
    return [JULIE, "certify", "-e", "gpo", "-j", "1", "-f", net_path]


def run_julie(cmd):
    """Run one julie process; return (wall_s, exit code, stdout, rusage)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         preexec_fn=verifier_affinity)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0, p.returncode, out.decode(errors="replace"), ru


def cold_verdict(inputs, qid, code, out):
    """Exit code contract: 0 holds, 1 violated, 2 inconclusive or a
    violation whose witness failed certification.  `safety` also prints
    the certified scenario, which must be there.  A claimed violation
    that failed certification is an uncertified violation verdict, so it
    counts as wrong, never as a mere error."""
    if code == 0:
        return "verdict", "holds", None
    if code == 1:
        certified = (not inputs.questions[qid]["cover"]) or "scenario (certified)" in out
        return "verdict", "violated", certified
    if code == 2 and "CERTIFICATION FAILED" in out:
        return "verdict", "violated", False
    if code == 2 and "inconclusive" in out:
        return "verdict", "inconclusive", None
    return stats.ERROR, None, None


def write_nets(inputs, work):
    d = os.path.join(work, "nets")
    os.makedirs(d)
    paths = {}
    for net_id, text in inputs.texts.items():
        paths[net_id] = os.path.join(d, net_id + ".net")
        with open(paths[net_id], "w") as f:
            f.write(text)
    return paths


def run_cold(args, work, live):
    def launch(tag):
        sub = os.path.join(work, tag)
        os.makedirs(sub)
        return timed(lambda: generate(args.workload, args.seed, sub))

    setups = Setups(launch, lambda doc: None)
    inputs = Inputs(setups.first())
    paths = write_nets(inputs, work)
    tally = Tally()
    cpu, rss = 0.0, 0
    t0 = time.perf_counter()
    t_end = t0 + args.seconds
    paused = 0.0
    # Whole cycles only, so every run weighs each question alike.
    for cycle in cold_cycles(inputs, args.seed):
        if tally.rows and time.perf_counter() >= t_end + paused:
            break
        for (qid,) in cycle:
            net = paths[inputs.questions[qid]["net"]]
            wall, code, out, ru = run_julie(cold_cmd(inputs, qid, net))
            kind, v, cert = cold_verdict(inputs, qid, code, out)
            tally.rows.append((qid, kind, v, cert, wall))
            cpu += ru.ru_utime + ru.ru_stime
            rss = max(rss, ru.ru_maxrss)
        paused += setups.sample()
    elapsed = time.perf_counter() - t0 - paused
    return {
        "inputs": inputs, "tally": tally, "latencies": [r[4] for r in tally.rows],
        "setup_s": setups.median(), "throughput": len(tally.rows) / elapsed,
        "cpu_s": cpu, "peak_rss_kb": rss,
        "notes": {"setup": setups.note("input generation")},
    }


def percentiles_ms(lat):
    """p50, p90 and p99 where the sample supports each, for the report."""
    return ", ".join("p%d %.3f ms" % (q, stats.percentile(lat, q) * 1e3)
                     for q in (50, 90, 99) if stats.supported(len(lat), q))


def run_hot(args, work, live):
    doc = generate(args.workload, args.seed, work)
    inputs = Inputs(doc, work)
    pristine = preseed_journal(inputs, work, live)
    setups = daemon_setups(work, 1, pristine, live)
    d = setups.first()
    # The closed-loop phases ask the pool alone: a faster daemon answers
    # more of their requests, and fresh nets among them would grow its
    # cache and journal with its speed, so that a gain would read as a
    # memory regression.  The fresh nets come in the open loop, whose
    # request count the offered rate fixes.
    hits = hot_stream(inputs, args.seed, fresh_share=0.0)
    tally = Tally()
    # Warm-up: answers checked, not timed.
    closed_loop(d, inputs, hits, args.seconds * HOT_WARMUP_SHARE,
                tally.record, window=HOT_WINDOW)
    # The three measured phases take turns in each cycle, so each is
    # sampled all through the run.
    cycles = cycles_of(args.seconds)
    cap_s, lat_s, open_s = (args.seconds * share / cycles for share in
                            (HOT_CAPACITY_SHARE, HOT_LATENCY_SHARE,
                             1.0 - HOT_WARMUP_SHARE - HOT_CAPACITY_SHARE
                             - HOT_LATENCY_SHARE))
    blocks, lat, due, late = [], [], [], []

    def record_rtt(b, r, latency):
        tally.record(b, r, latency)
        lat.append(latency)

    def record_due(b, r, latency):
        tally.record(b, r, latency)
        due.append(latency)

    opens = hot_stream(inputs, args.seed)
    for _ in range(cycles):
        d.check()
        # Capacity: `HOT_WINDOW` requests outstanding.
        blocks.append(closed_loop(d, inputs, hits, cap_s, tally.record,
                                  window=HOT_WINDOW))
        # Latency: one request at a time, as one client sees it.
        closed_loop(d, inputs, hits, lat_s, record_rtt)
        # Open loop at a fixed rate, timed from each request's due time.
        late += open_loop(d, inputs, opens, HOT_RATE, open_s, record_due)
        setups.sample()
    rates = [n / el for n, el in blocks]
    d.check()
    counts = daemon_counts(d.stats())
    d.stop()
    ru = d.rusage
    due = [x for x in due if x is not None]
    return {
        "inputs": inputs, "tally": tally, "latencies": [x for x in lat if x is not None],
        "setup_s": setups.median(),
        "throughput": sum(n for n, _ in blocks) / sum(el for _, el in blocks),
        "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_kb": ru.ru_maxrss,
        "daemon": counts,
        "notes": {
            "setup": setups.note("daemon start-up"),
            "capacity": "%d outstanding, %d blocks of %.2f s, %.0f-%.0f req/s"
                        % (HOT_WINDOW, len(rates), cap_s, min(rates), max(rates)),
            "open loop": "%.0f req/s offered, %d sent, due-time latency %s; sender "
                         "late by %.3f ms mean, %.3f ms max"
                         % (HOT_RATE, len(due), percentiles_ms(due),
                            statistics.mean(late) * 1e3, max(late) * 1e3),
        },
    }


def run_mixed(args, work, live):
    doc = generate(args.workload, args.seed, work)
    inputs = Inputs(doc)
    setups = daemon_setups(work, 2, None, live)
    d = setups.first()
    stream = STREAMS["serve-mixed"](inputs, args.seed)
    tally = Tally()
    cycles = cycles_of(args.seconds)
    n, elapsed = 0, 0.0
    for _ in range(cycles):
        d.check()
        k, el = closed_loop(d, inputs, stream, args.seconds / cycles, tally.record)
        n, elapsed = n + k, elapsed + el
        setups.sample()
    d.check()
    counts = daemon_counts(d.stats())
    d.stop()
    ru = d.rusage
    return {
        "inputs": inputs, "tally": tally, "latencies": [r[4] for r in tally.rows],
        "setup_s": setups.median(), "throughput": len(tally.rows) / elapsed,
        "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_kb": ru.ru_maxrss,
        "daemon": counts,
        "notes": {"batches": "%d batches, %d jobs" % (n, len(tally.rows)),
                  "setup": setups.note("daemon start-up")},
    }


RUNNERS = {"cold-gpo": run_cold, "serve-hot": run_hot, "serve-mixed": run_mixed}


def end_to_end(workload, run, expect):
    acc = stats.account(run["tally"].outcomes(expect), LIMIT_S[workload])
    lat = run["latencies"]
    if not lat:
        raise BenchError("no latency samples")
    values = {
        "setup_s": run["setup_s"],
        "throughput_qps": run["throughput"],
        "latency_p50_ms": stats.percentile(lat, 50) * 1e3,
        "latency_p90_ms": stats.percentile(lat, 90) * 1e3,
        "in_limit_share": acc.in_limit_share,
        "cpu_s_per_verdict": run["cpu_s"] / acc.attempted,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }
    extra = {"failed_share": acc.failed_share, "samples": len(lat),
             "latency": percentiles_ms(lat)}
    return values, acc, extra


def metrics_json(decl, values):
    """The result's metrics object, in declaration order, with units."""
    missing = [name for name, _ in decl if name not in values]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in decl}


# --------------------------------------------------------------------
# The traced run


def write_stream(batches, work):
    path = os.path.join(work, "stream.json")
    with open(path, "w") as f:
        json.dump(batches, f)
    return path


def run_replay(args, work, qpath, spath, pristine):
    """The in-process replay: one benchtrace process per pass (traced,
    untraced and, for the daemons, the real scheduler), fed the requests
    block by block in an order that rotates from one block to the next,
    so each pass runs first, second and last equally often.  Pass times
    on a small VM drift by 10% within a second; interleaved this finely,
    the drift weighs alike on every pass and stays out of the
    differences between passes the ledger reads.  Returns each pass's
    results by name, and the Chrome trace's path."""
    kinds = ["traced", "untraced"]
    if args.workload != "cold-gpo":
        kinds.append("reference")
    os.makedirs(OUT_ROOT, exist_ok=True)
    trace = os.path.join(OUT_ROOT, "%s-seed%d.trace.json" % (args.workload, args.seed))
    procs = []

    def answer(kind, p, err):
        line = p.stdout.readline().decode()
        if not line:
            p.wait()
            with open(err) as f:
                raise BenchError("traced replay, %s pass, failed: %s" % (kind, f.read()))
        return line.split()

    try:
        for kind in kinds:
            out = os.path.join(work, kind + ".json")
            err = os.path.join(work, kind + ".err")
            with open(err, "w") as ef:
                p = subprocess.Popen(
                    [BENCHTRACE, kind, args.workload, qpath, spath, str(REPLAY_BLOCKS),
                     os.path.join(work, "replay-" + kind), pristine or "-", out, trace],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=ef,
                    preexec_fn=verifier_affinity)
            procs.append((kind, p, out, err))
        blocks = {int(answer(kind, p, err)[1]) for kind, p, _, err in procs}
        if len(blocks) != 1:
            raise BenchError("traced replay: passes disagree on the blocks")
        for k in range(blocks.pop()):
            r = k % len(procs)
            for kind, p, _, err in procs[r:] + procs[:r]:
                p.stdin.write(b"%d\n" % k)
                p.stdin.flush()
                if answer(kind, p, err) != ["done"]:
                    raise BenchError("traced replay, %s pass: unexpected reply" % kind)
        results = {}
        for kind, p, out, err in procs:
            p.stdin.close()
            if p.wait() != 0:
                with open(err) as f:
                    raise BenchError("traced replay, %s pass, failed: %s" % (kind, f.read()))
            with open(out) as f:
                results[kind] = json.load(f)
        return results, trace
    finally:
        for _, p, _, _ in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            p.stdout.close()
            if not p.stdin.closed:
                p.stdin.close()


def real_pass(wl, d, inputs, batches, seconds, work, record):
    """Requests from the iterator `batches` against the real binary
    (cold-gpo) or daemon, one at a time, for at most `seconds`;
    record(batch, results, latency) per request, in order.  Returns the
    number sent."""
    if d is not None:
        return closed_loop(d, inputs, batches, seconds, record)[0]
    t_end = time.perf_counter() + seconds
    sent = 0
    for batch in batches:
        if sent and time.perf_counter() >= t_end:
            break
        qid = batch[0]
        net = inputs.questions[qid]["net"]
        path = os.path.join(work, net + ".net")
        if not os.path.exists(path):
            with open(path, "w") as f:
                f.write(inputs.texts[net])
        wall, code, out, _ = run_julie(cold_cmd(inputs, qid, path))
        kind, v, cert = cold_verdict(inputs, qid, code, out)
        record(batch, [(qid, kind, v, cert)], wall)
        sent += 1
    return sent


def trace_overhead_share(traced, untraced):
    """Median over requests of traced over untraced time, minus one."""
    return statistics.median(t / u for t, u in zip(traced, untraced) if u > 0) - 1.0


def ledger_faults(residuals, round_trip):
    """Residual rows of the wrong sign beyond LEDGER_TOLERANCE of the
    round trip: a cost below zero, or tracing that sped the replay up.
    The passes a residual compares are interleaved so that the host's
    drift cancels; a fault says it did not, and the ledger is unsound."""
    return ["%s at %.1f%% of the round trip" % (name, 100.0 * v / round_trip)
            for name, v, sign in residuals
            if sign * v < -LEDGER_TOLERANCE * round_trip]


def traced(args, work, live):
    """Per-layer metrics.  The real binary or daemon answers a stream of
    requests one at a time; the in-process replay (run_replay) then
    runs the same requests traced, untraced and (serve workloads)
    through the real scheduler; last, the real binary or a fresh daemon
    answers them again, so the real passes bracket the replay.  The
    ledger's rows add up to the measured round trip: layer self times
    from the traced replay, minus the tracing overhead (the median ratio
    of a request's traced to its untraced time), plus the residuals
    named in the rows."""
    wl = args.workload
    doc = generate(wl, args.seed, work)
    inputs = Inputs(doc, work)
    qpath = os.path.join(work, "questions.json")
    stream = STREAMS[wl](inputs, args.seed)
    values = {k: 0.0 for k, _ in PER_LAYER}
    tally = Tally()
    jobs = 2 if wl == "serve-mixed" else 1
    pristine = preseed_journal(inputs, work, live) if wl == "serve-hot" else None

    def daemon(tag):
        if wl == "cold-gpo":
            return None
        d, _ = start_daemon(work, tag, jobs, pristine)
        live.append(d)
        return d

    def recorder(into, sent=None):
        def rec(b, r, lat):
            tally.record(b, r, lat)
            into.append(lat)
            if sent is not None:
                sent.append(b)
        return rec

    before, after, due, replayed = [], [], [], []
    d = daemon("daemon-before")
    n = real_pass(wl, d, inputs, stream, args.seconds * 0.25, work,
                  recorder(before, replayed))
    if wl == "serve-hot":
        # The open loop on the same daemon: due-time latency minus
        # round trip is the wait a request spends queued.
        open_loop(d, inputs, stream, HOT_RATE, args.seconds * 0.15, recorder(due))
        due = [x for x in due if x is not None]
    if d is not None:
        values.update(daemon_counts(d.stats()))
        d.stop()
    if inputs.chunks:
        with open(qpath, "w") as f:
            json.dump(inputs.doc, f)
    spath = write_stream(replayed, work)
    passes, trace = run_replay(args, work, qpath, spath, pristine)
    d = daemon("daemon-after")
    real_pass(wl, d, inputs, iter(replayed), float("inf"), work, recorder(after))
    if d is not None:
        d.stop()
    if None in before or None in after:
        raise BenchError("a request of the traced run got no reply")
    real = [(a + b) / 2.0 for a, b in zip(before, after)]
    round_trip = statistics.mean(real)
    ledger = passes["traced"]
    values.update(ledger["metrics"])
    for qid, v in ledger["verdicts"].items():
        tally.rows.append((qid, "verdict", v["verdict"], v["certified"], 0.0))
    per_req = {r["name"]: r["self_s_per_request"] for r in ledger["rows"]}
    traced_inproc = sum(per_req.values())
    # The tracing overhead as a share: the median over requests of traced
    # over untraced time, robust to the few requests (portfolio races,
    # host stalls) whose time swings by half from one run to the next.
    overhead = trace_overhead_share(ledger["request_s"],
                                    passes["untraced"]["request_s"])
    untraced_inproc = traced_inproc / (1.0 + overhead)
    rows = [(r["layer"], r["name"], r["self_s_per_request"]) for r in ledger["rows"]]
    # (layer, name, value, sign it must have; 0 where either can hold)
    residuals = [("obs", "tracing overhead (removed)",
                  -(traced_inproc - untraced_inproc), -1)]
    if wl == "cold-gpo":
        per_q = passes["untraced"]["untraced_per_question_s"]
        # Median over the replayed requests: one slow question's noise
        # must not swamp the fixed per-process cost.
        values["cli.overhead_s"] = statistics.median(
            wall - per_q[b[0]] for b, wall in zip(replayed, real))
        residuals.append(("bin/julie", "cli (process wall minus in-process)",
                          round_trip - untraced_inproc, 1))
    else:
        values.update(passes["reference"]["metrics"])
        server_side = passes["reference"]["server_side_s"]
        values["transport_s"] = round_trip - server_side
        if due:
            values["server.wait_s"] = statistics.mean(due) - statistics.mean(before)
        # A pool of two runs a batch's jobs side by side, so its real
        # submit path may take less than the sequential replay.
        residuals.append(("serve", "scheduler (real submit minus sequential replay)",
                          server_side - untraced_inproc, 1 if jobs == 1 else 0))
        residuals.append(("serve", "transport (round trip minus server side)",
                          values["transport_s"], 1))
    rows += [(layer, name, v) for layer, name, v, _ in residuals]
    values["unattributed_share"] = per_req.get("request", 0.0) / round_trip
    values["obs.trace_overhead_share"] = overhead
    return {
        "inputs": inputs, "tally": tally, "values": values, "rows": rows,
        "round_trip": round_trip, "requests": n, "trace": trace,
        "faults": ledger_faults([(name, v, sign) for _, name, v, sign in residuals],
                                round_trip),
    }


def print_ledger(wl, t):
    log("per-layer ledger, %s: %d requests replayed; round trip %.3f ms"
        % (wl, t["requests"], t["round_trip"] * 1e3))
    log("  %-10s %-44s %12s %8s" % ("layer", "span", "ms/request", "share"))
    total = 0.0
    by_layer = {}
    for layer, name, s in sorted(t["rows"], key=lambda r: -abs(r[2])):
        total += s
        by_layer[layer] = by_layer.get(layer, 0.0) + s
        log("  %-10s %-44s %12.4f %7.1f%%" % (layer, name, s * 1e3,
                                              100.0 * s / t["round_trip"]))
    log("  %-10s %-44s %12.4f %7.1f%%" % ("", "sum", total * 1e3,
                                          100.0 * total / t["round_trip"]))
    log("  by layer: " + ", ".join("%s %.1f%%" % (k, 100.0 * v / t["round_trip"])
                                  for k, v in sorted(by_layer.items(),
                                                     key=lambda kv: -abs(kv[1]))))
    log("  unattributed_share %.4f, obs.trace_overhead_share %.4f"
        % (t["values"]["unattributed_share"], t["values"]["obs.trace_overhead_share"]))
    for fault in t["faults"]:
        log("  LEDGER UNSOUND: %s (tolerance %.0f%%)" % (fault, 100 * LEDGER_TOLERANCE))
    log("  chrome trace: %s" % t["trace"])


# --------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # The generator's own collector pauses would land in the latencies it
    # measures; a run's few hundred thousand small records need none.
    gc.disable()
    live = []
    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        check_checkout()
        build(args.trace == 1)
        os.makedirs(work)
        pin(args.workload)
        stamp = provenance()
        stamp.update({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace})
        if args.trace:
            t = traced(args, work, live)
            inputs, tally = t["inputs"], t["tally"]
            qids = [row[0] for row in tally.rows]
            expect = expected_verdicts(inputs, qids, work)
            acc = stats.account(tally.outcomes(expect), float("inf"))
            metrics = metrics_json(PER_LAYER, t["values"])
            print_ledger(args.workload, t)
            report = {"stamp": stamp, "metrics": metrics, "rows": t["rows"],
                      "ledger_faults": t["faults"]}
        else:
            run = RUNNERS[args.workload](args, work, live)
            inputs, tally = run["inputs"], run["tally"]
            expect, oracle_s = timed(lambda: expected_verdicts(
                inputs, [row[0] for row in tally.rows], work))
            run["notes"]["verdict check"] = "%d questions, %.1f s" % (len(expect), oracle_s)
            values, acc, extra = end_to_end(args.workload, run, expect)
            metrics = metrics_json(END_TO_END, values)
            log("%s seed %d: %d verdicts attempted, %d failed (failed_share %.4f), "
                "%d wrong" % (args.workload, args.seed, acc.attempted, acc.failed,
                              acc.failed_share, acc.wrong))
            for name, unit in END_TO_END:
                log("  %-20s %14.4f %s" % (name, values[name], unit))
            log("  latency: %d samples, %s" % (extra["samples"], extra["latency"]))
            for k, v in sorted(run.get("notes", {}).items()):
                log("  %s: %s" % (k, v))
            if run.get("daemon"):
                log("  daemon stats: " + ", ".join(
                    "%s=%s" % kv for kv in sorted(run["daemon"].items())))
            report = {"stamp": stamp, "metrics": metrics, "extra": extra,
                      "daemon": run.get("daemon")}
        log("  provenance: " + json.dumps(stamp, sort_keys=True))
        os.makedirs(OUT_ROOT, exist_ok=True)
        with open(os.path.join(OUT_ROOT, "%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace)), "w") as f:
            json.dump(report, f, indent=1)
        for line in tally.wrong(inputs, expect):
            log("  WRONG %s" % line)
        correct = acc.wrong == 0
        print(json.dumps({"correct": correct, "attempted": acc.attempted,
                          "failed": acc.failed, "metrics": metrics}))
        return 0 if correct else 1
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        for d in live:
            d.kill()
            try:
                d.proc.wait(timeout=10)
            except (subprocess.TimeoutExpired, ChildProcessError):
                pass
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
