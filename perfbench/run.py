#!/usr/bin/env python3
"""The repository benchmark: runs one workload against the real `ddtest`
binary and prints its metrics (see perfbench/README.md).

    python3 perfbench/run.py --workload perfect-stream --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. It builds `ddtest` and the
benchmark harness from source with dune, generates the workload's inputs
from --seed, computes certified reference verdicts in an untimed pass,
measures for --seconds, checks every op's verdicts against the
reference, and prints one `name value unit` line per metric followed by
a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
the traced in-process pass and reports the per-layer metrics. Scratch
files go to .perfbench/ under the checkout.
"""

import argparse
import json
import os
import re
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

DDTEST = "_build/default/bin/ddtest.exe"
WORK = ".perfbench"
# The harness is a dune project of its own (perfbench/harness); it is
# built in this directory, beside a link to the checkout's lib/, because
# the dda_* libraries are private to the project that holds them.
HARNESS_ROOT = os.path.join(WORK, "build")
HARNESS = os.path.join(HARNESS_ROOT, "_build", "default", "harness.exe")

# Every ddtest run (and the harness's reference and traced passes) gets
# a per-query solver step budget, so that a program that runs away
# degrades after a few seconds and counts as a failed op. About one fuzz
# program of the mixed profile in 10,000 to 60,000 grows without bound
# (gigabytes within seconds); the costliest one found that decides
# (fuzz:mixed:7:17339, 1.9 s) needs under 2M steps.
BUDGET = ["--budget-steps", "2000000"]

# Address-space cap for every child, so that a runaway analysis cannot
# exhaust the memory of a shared machine.
MEMORY_CAP = 4 << 30

# Every timed ddtest process runs one worker domain. On a machine of a
# few shared cores, a second worker domain (and the stop-the-world minor
# collections it shares with the others) makes a run measure the
# scheduler, not the program.
JOBS = "1"

PERFECT_COPIES = 2  # perfect-stream: PERFECT x 2 (26 programs) per launch
FUZZ_CHUNK = 5000  # fuzz-shared: programs per launch
FUZZ_PROFILE = "small"  # fuzz profile of every fuzz corpus; the harness's too
POOL = 8  # distinct corpora per run, launched in turn
MIN_PASSES = 3  # passes over the pool per run, at least
CHILD_TIMEOUT = 120


class BenchError(Exception):
    pass


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


CHILDREN = []


def spawn(cmd, **kw):
    """Start a child under the memory cap; children still running when the
    benchmark stops are killed and waited for."""
    p = subprocess.Popen(cmd, preexec_fn=limit_memory, **kw)
    CHILDREN.append(p)
    return p


def reap():
    for p in CHILDREN:
        if p.returncode is None and p.poll() is None:
            p.kill()
            p.wait()


def run_tool(args, **kw):
    """Run a helper to completion, raising on failure."""
    r = subprocess.run(
        args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=limit_memory,
        timeout=CHILD_TIMEOUT,
        **kw,
    )
    if r.returncode != 0:
        raise BenchError(
            "%s exited %d: %s" % (args[0], r.returncode, r.stderr.decode()[-2000:])
        )
    return r.stdout


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("bin") and os.path.isdir("lib")):
        raise BenchError("run from the root of a checkout: dune-project, bin/ and lib/ are missing")
    os.makedirs(HARNESS_ROOT, exist_ok=True)
    src = os.path.join("perfbench", "harness")
    for f in os.listdir(src):
        shutil.copy(os.path.join(src, f), HARNESS_ROOT)
    lib = os.path.join(HARNESS_ROOT, "lib")
    if not os.path.islink(lib):
        os.symlink(os.path.join("..", "..", "lib"), lib)
    for root, target in ((".", "./bin/ddtest.exe"), (HARNESS_ROOT, "./harness.exe")):
        r = subprocess.run(
            ["dune", "build", "--root", root, target],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        if r.returncode != 0:
            raise BenchError("build failed:\n" + r.stdout.decode()[-4000:])


def harness(*args):
    return run_tool([HARNESS] + BUDGET + [str(a) for a in args])


def reference(gate, d, corpora):
    """The harness's reference pass over each corpus, two at a time: the
    pass is untimed, so it may use both cores."""
    for i in range(0, len(corpora), 2):
        procs = []
        for j, corpus in enumerate(corpora[i : i + 2]):
            out = os.path.join(d, "ref%d.jsonl" % j)
            cmd = [HARNESS] + BUDGET + ["reference", out] + [str(a) for a in corpus]
            procs.append((out, spawn(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
        for out, p in procs:
            _, err = p.communicate(timeout=CHILD_TIMEOUT)
            if p.returncode != 0:
                raise BenchError("harness reference exited %d: %s" % (p.returncode, err.decode()[-2000:]))
        for out, _ in procs:
            gate.load(out)
            os.remove(out)


def workdir(name):
    d = os.path.join(WORK, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def verdicts(pairs):
    """The verdict-bearing fields of rendered pairs. Memo-dependent fields
    (which test decided, hit counts) are left out: they legitimately
    differ between an isolated and a shared or durable memo."""
    out = []
    for p in pairs:
        o = p["outcome"]
        out.append(
            (
                p["array"],
                p["ref1"]["loc"],
                p["ref2"]["loc"],
                p["self"],
                o["verdict"],
                json.dumps(o.get("vectors")),
                json.dumps(o.get("distance")),
            )
        )
    return out


def undecided(pairs):
    return any(
        p["outcome"].get("exact") is False
        or "degraded" in p["outcome"]
        or p["outcome"].get("how") == "assumed-not-affine"
        for p in pairs
    )


class Gate:
    """Reference verdicts, produced and certified in an untimed pass by
    the harness (lib/check replays every certificate; the exhaustive
    oracle runs where bounds are small), and the tally of timed ops
    checked against them."""

    def __init__(self):
        self.ref = {}
        self.certificates = 0
        self.cert_failures = 0
        self.unknown = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []
        self.items = {}

    def load(self, path):
        with open(path) as f:
            for line in f:
                r = json.loads(line)
                self.ref[r["name"]] = (verdicts(r["pairs"]), undecided(r["pairs"]))
                self.certificates += r["certificates"]
                self.cert_failures += r["errors"]
                self.unknown += r["unknown"]
                if r["errors"]:
                    self.correct = False
                    self.note("%s: %d certificate(s) failed" % (r["name"], r["errors"]))

    def note(self, msg):
        if len(self.notes) < 20:
            self.notes.append(msg)

    def fail(self, name, why, wrong=False):
        self.failed += 1
        if wrong:
            self.correct = False
        self.note("%s: %s" % (name, why))

    def judge(self, name, pairs):
        """Why one op's rendered pairs fail against the reference, and
        whether that makes the output wrong; None if they pass."""
        if name not in self.ref:
            return "no reference verdicts", True
        if verdicts(pairs) != self.ref[name][0]:
            return "verdicts differ from the certified reference", True
        if undecided(pairs) or self.ref[name][1]:
            return "undecided (degraded or assumed) verdicts", False
        return None

    def record(self, name, judged):
        self.attempted += 1
        if judged:
            self.fail(name, *judged)

    def check(self, name, pairs):
        """One op's rendered pairs against the reference."""
        self.record(name, self.judge(name, pairs))

    def check_item(self, line):
        """One `ddtest batch --format json` item line. Launches repeat
        corpora, so each distinct line is parsed and judged once."""
        if line not in self.items:
            item = json.loads(line)
            if item.get("quarantined"):
                judged = ("quarantined: " + item.get("error", ""), False)
            else:
                judged = self.judge(item["file"], item["report"]["pairs"])
            self.items[line] = (item["file"], judged)
        name, judged = self.items[line]
        self.record(name, judged)
        return judged is not None and judged[0].startswith("quarantined")


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------


def batch_launch(cmd, gate, log):
    """One `ddtest batch --stream --format json --log-level info` process:
    returns (setup_s, wall_s, ops, gaps_s, cpu_s, rss_mb). Items are
    checked against the gate after the process has exited."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        p = spawn(cmd, stdout=subprocess.PIPE, stderr=err)
        stamps, lines = [], []
        for line in p.stdout:
            stamps.append(time.perf_counter())
            lines.append(line)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    summary = bool(lines) and b'"corpus"' in lines[-1][:12]
    items = lines[:-1] if summary else lines
    quarantined = sum(gate.check_item(line) for line in items)
    # `ddtest batch` exits 3 after a complete run that quarantined items;
    # those count as failed ops above.
    finished = p.returncode == 0 or (p.returncode == 3 and quarantined > 0)
    if not (summary and finished):
        raise BenchError("%s exited %d after %d item(s); see %s" % (cmd[0], p.returncode, len(items), log))
    if not items:
        raise BenchError("batch emitted no items")
    # The process's own VmHWM, which it logs at info level: the kernel's
    # ru_maxrss of a forked child also counts the parent's pages.
    with open(log) as f:
        rss = re.search(r"peak rss (\d+) kB", f.read())
    if not rss:
        raise BenchError("no peak rss line in " + log)
    gaps = [b - a for a, b in zip(stamps, stamps[1 : len(items)])]
    return (
        stamps[0] - t0,
        wall,
        len(items),
        gaps,
        ru.ru_utime + ru.ru_stime,
        int(rss.group(1)) / 1024.0,
    )


def batch_metrics(passes):
    """Metrics over whole passes, each launching every corpus once. Each
    corpus's wall and CPU time is its median over the passes, so a burst
    of load on the machine moves a launch but not the figure; summing
    those over the corpora weighs each corpus by its size, as one long
    launch would. Latency quantiles are taken per pass, then the median
    over passes, for the same reason."""
    launches = [l for p in passes for l in p]
    setups, _, _, _, _, rss = zip(*launches)
    ops = [l[2] for l in passes[0]]
    walls = [statistics.median(p[k][1] for p in passes) for k in range(len(ops))]
    cpus = [statistics.median(p[k][4] for p in passes) for k in range(len(ops))]
    p50, p99 = [], []
    for p in passes:
        gaps = sorted(g for l in p for g in l[3])
        p50.append(quantile(gaps, 0.50))
        p99.append(quantile(gaps, 0.99))
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(ops) / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(p50),
        "op_p99_ms": 1e3 * statistics.median(p99),
        "cpu_ms_per_op": 1e3 * sum(cpus) / sum(ops),
        "peak_rss_mb": statistics.median(rss),
    }, {"passes": len(passes), "launches": len(launches), "ops": sum(l[2] for l in launches),
        "latency_samples": sum(len(l[3]) for l in launches)}


def quantile(sorted_values, q):
    if not sorted_values:
        raise BenchError("no latency samples")
    i = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[i]


def batch_workload(d, seconds, trace, corpus, mode):
    """corpus(k) makes corpus k's inputs and returns (its ddtest command,
    the corpus in harness form, the corpus as daemon requests when
    `trace`). A run makes POOL corpora and their reference verdicts,
    untimed, then launches them in passes until `seconds` of launches
    have been measured. With `trace`, corpus 0 is launched and checked
    once and goes through the traced pass."""
    gate = Gate()
    log = os.path.join(d, "ddtest.log")
    if trace:
        cmd, programs, requests = corpus(0)
        reference(gate, d, [programs])
        batch_launch(cmd, gate, log)
        layers, info = traced(d, mode, programs)
        # The daemon and its durable store are not on the batch path; the
        # corpus is sent through them once so that their layers are
        # measured on this workload's programs too.
        results, server_layers = probe(d, requests, range(len(requests.paths)))
        requests.check(gate, results)
        layers.update(server_layers)
        harness("open-store", os.path.join(d, "store.cache"), os.path.join(d, "store.json"))
        with open(os.path.join(d, "store.json")) as f:
            layers.update(json.load(f))
        # The store started empty: every record in it is an append.
        layers["cache.appends"] = layers["cache.records_replayed"]
        return gate, layers, info
    cmds, corpora = [], []
    for k in range(POOL):
        cmd, programs, _ = corpus(k)
        cmds.append(cmd)
        corpora.append(programs)
    reference(gate, d, corpora)
    passes, measured = [], 0.0
    while measured < seconds or len(passes) < MIN_PASSES:
        passes.append([batch_launch(cmd, gate, log) for cmd in cmds])
        measured += sum(l[1] for l in passes[-1])
    return (gate,) + batch_metrics(passes)


def perfect_stream(seed, seconds, trace):
    """Corpus k is the seed-shifted copies 2(1000 seed + k) and the next
    one of the PERFECT suite (26 programs), analyzed with a memo per
    item."""
    d = workdir("perfect-stream")

    def corpus(k):
        out = os.path.join(d, "corpus%d" % k)
        os.makedirs(out)
        harness("gen-perfect", (seed * 1000 + k) * PERFECT_COPIES, PERFECT_COPIES, out)
        files = sorted(os.path.join(out, f) for f in os.listdir(out))
        cmd = [DDTEST, "batch", "--stream", "--format", "json", "--jobs", JOBS, "--log-level", "info"]
        cmd += BUDGET + files
        return cmd, files, (Requests(files) if trace else None)

    return batch_workload(d, seconds, trace, corpus, "fresh")


def fuzz_shared(seed, seconds, trace):
    """Corpus k is the FUZZ_CHUNK programs of fuzz corpus 1000 seed + k,
    analyzed with one memo shared across the corpus."""
    d = workdir("fuzz-shared")

    def corpus(k):
        s = seed * 1000 + k
        cmd = [
            DDTEST, "batch", "--stream", "--fuzz", str(FUZZ_CHUNK), "--seed", str(s),
            "--fuzz-profile", FUZZ_PROFILE, "--share-memo", "--jobs", JOBS,
            "--format", "json", "--log-level", "info",
        ] + BUDGET
        requests = None
        if trace:
            progs = os.path.join(d, "programs")
            os.makedirs(progs)
            harness("gen-fuzz", s, 0, FUZZ_CHUNK, progs)
            paths = sorted(os.path.join(progs, f) for f in os.listdir(progs))
            requests = Requests(paths, ["fuzz:%s:%d:%d" % (FUZZ_PROFILE, s, i) for i in range(FUZZ_CHUNK)])
        return cmd, ["--fuzz", s, 0, FUZZ_CHUNK], requests

    return batch_workload(d, seconds, trace, corpus, "shared")


# ---------------------------------------------------------------------------
# The daemon, for the traced run
# ---------------------------------------------------------------------------


class Server:
    """`ddtest serve --jobs 1 --cache store.cache` (fsync on) in its own
    directory, so that the socket path stays short."""

    def __init__(self, d, extra=()):
        self.d = d
        self.sock = os.path.join(d, "s.sock")
        self.cmd = [os.path.abspath(DDTEST), "serve", "--socket", "s.sock", "--jobs", JOBS,
                    "--cache", "store.cache"] + BUDGET + list(extra)

    def start(self):
        """Start the server and wait until its socket accepts."""
        self.err = open(os.path.join(self.d, "serve.log"), "ab")
        t0 = time.perf_counter()
        self.p = spawn(self.cmd, cwd=self.d, stdin=subprocess.DEVNULL, stdout=self.err, stderr=self.err)
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock)
                s.close()
                return
            except OSError:
                s.close()
                if self.p.poll() is not None:
                    raise BenchError("ddtest serve exited %d; see %s/serve.log" % (self.p.returncode, self.d))
                if time.perf_counter() - t0 > CHILD_TIMEOUT:
                    self.stop()
                    raise BenchError("ddtest serve did not start")
                time.sleep(0.0002)

    def stop(self):
        """Drain the server (SIGTERM) and wait for it to exit."""
        self.p.send_signal(signal.SIGTERM)
        try:
            self.p.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        self.err.close()
        if self.p.returncode != 0:
            raise BenchError("ddtest serve exited %d; see %s/serve.log" % (self.p.returncode, self.d))


def closed_loop(sock_path, requests, seq):
    """A closed-loop client on one connection: it sends request i of
    `seq` only when the previous response has arrived. Returns a list of
    (program index, latency_s, response bytes)."""
    results = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        s.settimeout(CHILD_TIMEOUT)
        buf = bytearray()
        for i in seq:
            t0 = time.perf_counter()
            s.sendall(requests(i))
            while b"\n" not in buf:
                chunk = s.recv(1 << 20)
                if not chunk:
                    raise BenchError("server closed the connection")
                buf += chunk
            nl = buf.index(b"\n")
            results.append((i, time.perf_counter() - t0, bytes(buf[:nl])))
            del buf[: nl + 1]
    return results


class Requests:
    """Programs for the daemon, one file each: request i analyzes file i."""

    def __init__(self, paths, names=None):
        self.paths = paths
        self.names = names or paths  # the reference verdicts' names
        self.texts = []
        for path in paths:
            with open(path) as f:
                self.texts.append(f.read())

    def __call__(self, i):
        return (json.dumps({"op": "analyze", "id": i, "program": self.texts[i]}) + "\n").encode()

    def check(self, gate, results):
        """Every response against the reference."""
        for i, _, body in results:
            r = json.loads(body)
            if r.get("ok"):
                gate.check(self.names[i], r["pairs"])
            else:
                gate.record(self.names[i], ("error response: " + r.get("error", ""), False))


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def traced(d, mode, corpus):
    """The harness's traced pass: (per-layer metrics, run info)."""
    out = os.path.join(d, "layers.json")
    harness("trace", mode, out, *corpus)
    with open(out) as f:
        layers = json.load(f)
    print("spans: %s" % (out + ".spans.json"))
    return layers, {"ops": layers["obs.ops"]}


def probe(d, requests, seq):
    """The server layer: requests `seq` against the real daemon, with its
    access log on, on the store in `d` (created if absent)."""
    log = os.path.join(d, "access.log")
    server = Server(d, ["--access-log", "access.log"])
    server.start()
    results = closed_loop(server.sock, requests, seq)
    server.stop()
    handle = []
    with open(log) as f:
        for line in f:
            r = json.loads(line)
            if r["op"] == "analyze":
                handle.append(r["ns"] / 1e6)
    client = [1e3 * r[1] for r in results]
    return results, {
        "server.handle_ms": statistics.mean(handle),
        "server.transport_ms": statistics.mean(client) - statistics.mean(handle),
        "server.shed": sum(b'"shed":true' in r[2] for r in results),
        "server.quarantined": sum(b'"quarantined":true' in r[2] for r in results),
    }


# ---------------------------------------------------------------------------


WORKLOADS = {
    "perfect-stream": perfect_stream,
    "fuzz-shared": fuzz_shared,
}


def declared(trace):
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    return b["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    try:
        build()
        gate, values, info = WORKLOADS[a.workload](a.seed, a.seconds, a.trace == 1)
        decl = declared(a.trace == 1)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
    finally:
        reap()
    values["failed_ratio"] = gate.failed / max(1, gate.attempted)
    values["check.certificates"] = gate.certificates
    values["check.failures"] = gate.cert_failures
    values["check.unknown"] = gate.unknown
    metrics = {}
    for m in decl:
        if m["name"] not in values:
            print("perfbench: %s did not measure %s" % (a.workload, m["name"]), file=sys.stderr)
            sys.exit(1)
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for note in gate.notes:
        print("gate: " + note)
    print("%s seed %d: %s" % (a.workload, a.seed, ", ".join("%s %s" % kv for kv in sorted(info.items()))))
    for name, m in metrics.items():
        if name != "failed_ratio":  # printed below, with its counts
            print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-34s %14.6g ratio (%d of %d ops)" % ("failed_ratio", values["failed_ratio"], gate.failed, gate.attempted))
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
