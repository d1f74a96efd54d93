#!/usr/bin/env python3
"""Socket-level benchmark of `xvi serve`; see perfbench/README.md.

    python3 perfbench/run.py --workload lookup|update|replicate \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds bin/xvi.exe and the benchmark's own
helper from source, sets up durable directories under perfbench/_work,
drives real server processes over their Unix sockets, checks every
answer, and prints one JSON object as the last line of standard output.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
import traceback

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = "perfbench"
XVI = "_build/default/bin/xvi.exe"
HELPER = "_build/default/perfbench/xvibench.exe"
SETUPS = 3

# Why each workload exists is in README.md. [tail] is the fixed tail
# percentile: the highest one with at least ten samples beyond it at the
# sample counts a --seconds 35 run collects. BENCHMARK.json declares
# lookup and update; replicate runs only when asked for by name.
WORKLOADS = {
    "lookup": {"factor": 4.0, "warm": 2.0, "tail": 95.0},
    "update": {"factor": 4.0, "warm": 2.0, "tail": 90.0},
    "replicate": {"factor": 1.0, "warm": 1.5, "tail": 90.0, "interval": 0.25,
                  "jitter": 0.05},
}
# in-process replay sizes and socket calibration commits, by scale
TRACE = {
    4.0: {"reads": 4000, "commits": 10, "lag": 6},
    1.0: {"reads": 4000, "commits": 30, "lag": 12},
}

DURABILITY_NOTE = (
    "SIGKILL keeps the OS page cache, so the recovery check proves that "
    "acks follow log appends, not that fsync reached the device"
)



class HarnessError(Exception):
    pass


# --- processes ---------------------------------------------------------

PROCS = []
WORK = []


def spawn(args, cwd, log):
    out = open(log, "ab")
    p = subprocess.Popen(args, cwd=cwd, stdout=out, stderr=subprocess.STDOUT,
                         stdin=subprocess.DEVNULL)
    out.close()
    PROCS.append(p)
    return p


def stop_all():
    for p in PROCS:
        if p.poll() is None:
            p.kill()
    for p in PROCS:
        try:
            p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass


def run(args, cwd=None, timeout=170):
    r = subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=timeout, text=True)
    if r.returncode != 0:
        raise HarnessError("%s failed (%d): %s" % (
            " ".join(args[:2]), r.returncode, (r.stderr or r.stdout)[-2000:]))
    return r.stdout


# --- the wire protocol, enough for set-up and shutdown -------------------

def request(path, verb, timeout=10.0):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(path)
        payload = verb.encode()
        s.sendall(b"%d\n" % len(payload) + payload)
        head = b""
        while not head.endswith(b"\n"):
            c = s.recv(1)
            if not c:
                raise OSError("connection closed")
            head += c
        n = int(head)
        body = b""
        while len(body) < n:
            c = s.recv(n - len(body))
            if not c:
                raise OSError("connection closed")
            body += c
        return body.decode().split(" ")
    finally:
        s.close()


def wait_hello(path, proc, limit=120.0):
    end = time.monotonic() + limit
    while time.monotonic() < end:
        if proc.poll() is not None:
            raise HarnessError("server exited with %d" % proc.returncode)
        try:
            if request(path, "hello")[0] == "epoch":
                return
        except OSError:
            pass
        time.sleep(0.005)
    raise HarnessError("server did not answer hello")


def repl_info(path):
    t = request(path, "repl-info")
    if t[0] != "repl-info":
        raise HarnessError("repl-info: %s" % " ".join(t))
    return {"durable_lsn": int(t[3]), "applied_lsn": int(t[5])}


def wait_caught_up(leader, follower, limit=120.0):
    want = repl_info(leader)["durable_lsn"]
    end = time.monotonic() + limit
    while time.monotonic() < end:
        try:
            if repl_info(follower)["applied_lsn"] >= want:
                return
        except OSError:
            pass
        time.sleep(0.005)
    raise HarnessError("follower did not catch up")


def shutdown(path, proc):
    if proc.poll() is None:
        try:
            request(path, "shutdown")
        except OSError:
            pass
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode not in (0, -signal.SIGKILL):
        raise HarnessError("server exited with %d" % proc.returncode)


def vm_hwm_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise HarnessError("no VmHWM for pid %d" % pid)


def dir_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def fs_type(path):
    try:
        return subprocess.run(["stat", "-f", "-c", "%T", path],
                              stdout=subprocess.PIPE, text=True).stdout.strip()
    except OSError:
        return "unknown"


def source_hash():
    h = hashlib.sha1()
    for top in ("lib", "bin", HERE):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith("_"))
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(root, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        return r.stdout.strip() or None
    except OSError:
        return None


# --- raw output files --------------------------------------------------

def parse_raw(path):
    series, counters, msgs, spans = {}, {}, [], []
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            if p[0] == "S":
                series.setdefault(p[1], []).append(int(p[2]))
            elif p[0] == "C":
                counters[p[1]] = float(p[2])
            elif p[0] == "M":
                msgs.append(p[1])
            elif p[0] == "T":
                spans.append((int(p[1]), int(p[2]), int(p[3]), p[4],
                              int(p[5]), int(p[6])))
    return series, counters, msgs, spans


def median(xs):
    s = sorted(xs)
    return s[len(s) // 2] if s else float("nan")


# --- the run -----------------------------------------------------------

def setup_once(cfg, work, doc, i, input_bytes):
    """Ingest, open the leader until it answers hello, and (replicate)
    bootstrap a follower until it has caught up. XML generation is not
    part of it."""
    leader_dir, lsock = "leader%d" % i, "l%d.sock" % i
    t0 = time.monotonic()
    run([os.path.abspath(XVI), "ingest", doc, "-o", leader_dir], cwd=work)
    t_ingest = time.monotonic() - t0
    leader = spawn([os.path.abspath(XVI), "serve", leader_dir, "--socket", lsock,
                    "--sync", "always", "--publish-period", "0", "-q"],
                   work, os.path.join(work, "leader%d.log" % i))
    wait_hello(os.path.join(work, lsock), leader)
    follower = None
    if cfg.get("interval"):
        fsock = "f%d.sock" % i
        follower = spawn([os.path.abspath(XVI), "serve", "follower%d" % i,
                          "--follow", lsock, "--socket", fsock, "--sync",
                          "always", "--publish-period", "0", "-q"],
                         work, os.path.join(work, "follower%d.log" % i))
        wait_hello(os.path.join(work, fsock), follower)
        wait_caught_up(os.path.join(work, lsock), os.path.join(work, fsock))
    t_setup = time.monotonic() - t0
    stored = dir_bytes(os.path.join(work, leader_dir))
    return {
        "setup_s": t_setup,
        "ingest_mb_per_s": input_bytes / 1e6 / t_ingest,
        "stored": stored,
        "leader": leader,
        "follower": follower,
        "lsock": lsock,
        "fsock": "f%d.sock" % i,
        "dir": leader_dir,
    }


def stop_setup(work, s):
    if s["follower"] is not None:
        shutdown(os.path.join(work, s["fsock"]), s["follower"])
    shutdown(os.path.join(work, s["lsock"]), s["leader"])


def layer_metrics(spans, counters, series, drive_series):
    """Per-layer metrics from the traced replay and the socket
    calibration streams."""
    by_id = {sid: (parent, s, e) for (_rid, sid, parent, _n, s, e) in spans}
    self_ns = stats.self_times(by_id)
    names = {}
    per_rid = {}
    for rid, sid, _parent, name, s, e in spans:
        names.setdefault(name, []).append(self_ns[sid])
        per_rid.setdefault(rid, {}).setdefault(name, 0)
        per_rid[rid][name] += e - s

    def med(name, scale):
        v = names.get(name)
        if not v:
            raise HarnessError("no %s spans" % name)
        return median(v) / scale

    us, ms = 1e3, 1e6
    m = {}
    for name in ("protocol.decode_request", "protocol.encode_response",
                 "protocol.read_frame", "engine.pin", "db.lookup_string",
                 "db.lookup_typed", "db.elements_named", "db.value",
                 "string_index.lookup", "typed_index.range", "txn.stage",
                 "db.update_text", "wal.append", "leader.pull"):
        m[name + "_us"] = med(name, us)
    for name in ("engine.submit_durable", "db.copy", "pre_plane.build",
                 "wal.fsync", "follower.catch_up", "engine.replica_apply"):
        m[name + "_ms"] = med(name, ms)
    served = ("protocol.decode_request", "engine.pin", "db.lookup_string",
              "db.lookup_typed", "db.elements_named", "db.value",
              "protocol.encode_response")
    inproc_req = [sum(d.get(n, 0) for n in served)
                  for d in per_rid.values() if "request" in d
                  and (d.keys() & {"db.lookup_string", "db.lookup_typed",
                                   "db.elements_named", "db.value"})]
    m["server.residual_us"] = (median(drive_series["calib_lookup"])
                               - median(inproc_req)) / us
    commits = [d for d in per_rid.values() if "commit" in d]
    parts = ("db.update_text", "db.copy", "pre_plane.build", "wal.append",
             "wal.fsync")
    m["engine.unattributed_ms"] = median(
        [d["engine.submit_durable"] - sum(d.get(p, 0) for p in parts)
         for d in commits]) / ms
    m["server.commit_residual_ms"] = (
        median(drive_series["calib_commit"])
        - median([d["txn.stage"] + d["engine.submit_durable"] for d in commits])
    ) / ms
    m["follower.poll_wait_ms"] = (median(series["inproc_lag"])
                                  - median(names["follower.catch_up"])) / ms
    for k in ("protocol.response_bytes", "engine.epochs_per_commit",
              "db.estimate_over_actual_p50", "db.estimate_over_actual_max",
              "db.index_storage_bytes", "wal.bytes_per_commit", "sax.mb_per_s",
              "ingest.load_mb_per_s", "snapshot.load_s", "gc.minor_words_per_op",
              "gc.major_collections_per_1k_ops", "gc.promoted_words_per_commit",
              "trace.overhead_pct"):
        m[k] = counters[k]
    return m


def bench(args):
    cfg = WORKLOADS[args.workload]
    factor = cfg["factor"]
    work = os.path.join(HERE, "_work", "%s-%d-%d" % (args.workload, args.seed,
                                                      os.getpid()))
    os.makedirs(work)
    WORK.append(work)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "xmark_factor": factor, "cores": os.cpu_count(),
        "git_rev": git_rev(), "source_sha1": source_hash(),
        "data_fs": fs_type(work), "sync": "always", "publish_period": 0,
    }
    if details["data_fs"] == "tmpfs":
        print("warning: data directories are on tmpfs; fsync costs are not "
              "a disk's", file=sys.stderr)
    failures, notes = 0, []
    doc = "doc.xml"
    run([os.path.abspath(HELPER), "gen", "--seed", str(args.seed), "--factor",
         str(factor), "--out", doc], cwd=work)
    input_bytes = os.path.getsize(os.path.join(work, doc))
    details["input_bytes"] = input_bytes

    # set-up time is an end-to-end metric only: a traced run sets up once
    n_setups = 1 if args.trace else SETUPS
    setups = []
    for i in range(n_setups):
        s = setup_once(cfg, work, doc, i, input_bytes)
        setups.append(s)
        if i < n_setups - 1:
            stop_setup(work, s)
            shutil.rmtree(os.path.join(work, s["dir"]))
            if s["follower"] is not None:
                shutil.rmtree(os.path.join(work, "follower%d" % i))
    live = setups[-1]
    stored = [s["stored"] for s in setups]
    details["setup_s"] = [s["setup_s"] for s in setups]
    details["ingest_mb_per_s"] = [s["ingest_mb_per_s"] for s in setups]
    details["stored_bytes"] = stored
    if len(set(stored)) != 1:
        failures += 1
        notes.append("stored bytes differ between identical set-ups: %s" % stored)

    sizes = TRACE[factor]
    out = "drive.txt"
    cmd = [os.path.abspath(HELPER), "drive", "--workload", args.workload,
           "--seed", str(args.seed), "--doc", doc, "--leader", live["lsock"],
           # a traced run needs only the warm-up and the calibration
           # streams from the socket; its timed work is the replay
           "--seconds", str(0 if args.trace else args.seconds),
           "--warm", str(cfg["warm"]),
           "--out", out]
    if args.trace:
        # the replay's own stream lengths, so the socket and in-process
        # medians are over the same requests
        cmd += ["--calib-reads", str(sizes["reads"]),
                "--calib-commits", str(sizes["commits"])]
    if cfg.get("interval"):
        cmd += ["--follower", live["fsock"], "--interval", str(cfg["interval"]),
                "--jitter", str(cfg["jitter"])]
    run(cmd, cwd=work, timeout=args.seconds + 120)
    series, counters, msgs, _ = parse_raw(os.path.join(work, out))
    attempted = int(counters["attempted"])
    failures += int(counters["failed"])
    notes += msgs
    procs = [live["leader"]] + ([live["follower"]] if live["follower"] else [])
    rss_kb = sum(vm_hwm_kb(p.pid) for p in procs)

    # end-of-run checks
    if args.workload == "lookup":
        for k in ("epoch", "wal_bytes"):
            before, after = counters[k + "_before"], counters[k + "_after"]
            # -1: the stats verb failed or lacked the key, nothing measured
            same = before >= 0 and before == after
            details[k + "_constant"] = same
            attempted += 1
            if not same:
                failures += 1
                notes.append(
                    "%s moved during the read-only timed phase" % k
                    if before >= 0 and after >= 0 else
                    "stats gave no %s around the timed phase" % k)
    if args.workload == "update":
        live["leader"].send_signal(signal.SIGKILL)
        live["leader"].wait()
        reopened = spawn([os.path.abspath(XVI), "serve", live["dir"], "--socket",
                          live["lsock"], "--sync", "always", "-q"],
                         work, os.path.join(work, "reopen.log"))
        wait_hello(os.path.join(work, live["lsock"]), reopened)
        v = run([os.path.abspath(HELPER), "verify", "--leader", live["lsock"],
                 "--acked", out], cwd=work).split()
        shutdown(os.path.join(work, live["lsock"]), reopened)
        n, missing = int(v[1]), int(v[2])
        attempted += n
        failures += missing
        details["durability"] = {"acked_nodes": n, "missing": missing,
                                 "note": DURABILITY_NOTE}
    else:
        stop_setup(work, live)
    if args.workload == "replicate":
        details["replica_equal"] = counters["end_check_failed"] == 0
    if args.workload == "update":
        c = [counters[k] for k in ("epoch_before", "epoch_after",
                                   "commits_before", "commits_after")]
        details["epochs_per_commit_socket"] = (
            None if min(c) < 0 else (c[1] - c[0]) / max(1, c[3] - c[2]))

    tail = cfg["tail"]
    if args.trace == 0:
        if args.workload == "lookup":
            series["lookup"] = series["lookup.0"] + series["lookup.1"]
        primary = {"lookup": "lookup", "update": "commit",
                   "replicate": "lag"}[args.workload]
        sm = stats.summarize(series.get(primary, []), tail=tail)
        if sm["tail_beyond"] < stats.MIN_BEYOND:
            notes.append("only %d samples beyond p%g" % (sm["tail_beyond"], tail))
        if args.workload == "replicate":
            due, sent, acked = (series[k] for k in ("ol_due", "ol_sent", "ol_ack"))
            lat, late = stats.open_loop(due, sent, acked)
            lat = [-1 if a < 0 else v for v, a in zip(lat, acked)]
            # acked commits over the window from the first due time to the
            # last ack: an open loop that falls behind acks later
            ops = (sum(1 for a in acked if a >= 0)
                   / ((max(acked) - min(due)) / 1e9))
            details["commit_sched"] = stats.summarize(lat)
            details["lateness"] = stats.summarize(late)
        elif args.workload == "lookup":
            ops, tail_ms = windowed(series, tail)
            sm["tail_ms"] = tail_ms
            details["tail_definition"] = "median over 1 s windows of p%g" % tail
        else:
            finish = max(v for k, v in counters.items() if k.startswith("finish_"))
            ok = [v for v in series[primary] if v >= 0]
            ops = len(ok) / (finish / 1e9)
        if args.workload == "update":
            details["reader_lookup"] = stats.summarize(series["reader_lookup"])
        details["primary"] = {"series": primary, **sm}
        metrics = {
            "setup_s": median(details["setup_s"]),
            "stored_bytes_per_input_byte": stored[-1] / input_bytes,
            "peak_rss_mb": rss_kb * 1024 / 1e6,
            "ops_per_s": ops,
            "p50_ms": sm["p50_ms"],
            "tail_ms": sm["tail_ms"],
        }
    else:
        tout = "trace.txt"
        os.makedirs(os.path.join(work, "trace"))
        run([os.path.abspath(HELPER), "trace", "--seed", str(args.seed),
             "--doc", doc, "--dir", "trace", "--reads", str(sizes["reads"]),
             "--commits", str(sizes["commits"]), "--lag-commits",
             str(sizes["lag"]), "--out", tout], cwd=work)
        tseries, tcounters, _, spans = parse_raw(os.path.join(work, tout))
        attempted += int(tcounters["attempted"])
        failures += int(tcounters["failed"])
        metrics = layer_metrics(spans, tcounters, tseries, series)
        details["trace_spans"] = len(spans)

    counts = {"stored_bytes_per_input_byte": stored[-1] / input_bytes}
    if args.trace:
        for k in ("protocol.response_bytes", "wal.bytes_per_commit",
                  "engine.epochs_per_commit"):
            counts[k] = metrics[k]
    bad = check_repeatable(args, details["source_sha1"], counts)
    if bad:
        failures += 1
        notes.append("count metrics differ from an earlier run with this "
                     "seed: %s" % bad)
    details["series_counts"] = {k: len(v) for k, v in series.items()}
    details["notes"] = notes[:20]
    # units come from BENCHMARK.json; every metric it declares for this
    # mode must have been measured
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise HarnessError("measured %s, BENCHMARK.json declares %s" % (
            sorted(metrics), sorted(units)))
    return {"correct": failures == 0, "attempted": attempted,
            "failed": failures,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}, details


def windowed(series, tail, conns=2):
    """Lookup throughput and tail as medians over the one-second windows
    of the timed phase (both connections merged per window), so a few
    seconds of machine stall move neither."""
    per_conn = []
    for c in range(conns):
        marks = [0] + series.get("mark.%d" % c, [])
        per_conn.append([series["lookup.%d" % c][a:b]
                         for a, b in zip(marks, marks[1:])])
    n = min(len(w) for w in per_conn)
    if n == 0:
        raise HarnessError("timed phase shorter than one window")
    counts, tails = [], []
    for i in range(n):
        merged = sorted(math.inf if v < 0 else v
                        for w in per_conn for v in w[i])
        counts.append(len(merged))
        tails.append(stats.percentile(merged, tail) / 1e6)
    return median(counts), median(tails)


def check_repeatable(args, src, counts):
    """Count metrics must repeat exactly for a seed on the same sources;
    remembered across runs in perfbench/_work/counts.json."""
    path = os.path.join(HERE, "_work", "counts.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    key = "%s:%d:%s" % (args.workload, args.seed, src)
    bad = {k: (seen[key][k], v) for k, v in counts.items()
           if key in seen and k in seen[key] and seen[key][k] != v}
    seen.setdefault(key, {}).update(counts)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f)
    os.replace(tmp, path)
    return bad




def build():
    for need in ("dune-project", "lib", os.path.join("bin", "xvi.ml"),
                 os.path.join(HERE, "dune"), "BENCHMARK.json"):
        if not os.path.exists(need):
            raise HarnessError("run from the root of an xvi checkout (%s is "
                               "missing)" % need)
    # no shared dune cache: the run reads and writes only the checkout
    r = subprocess.run(["dune", "build", "--root", ".", "bin/xvi.exe",
                        "perfbench/xvibench.exe"], stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True, timeout=900,
                       env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0:
        raise HarnessError("build failed:\n" + r.stdout[-4000:])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        result, details = bench(args)
    except HarnessError as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1
    except (subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        traceback.print_exc()
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        stop_all()
        if WORK:
            shutil.rmtree(WORK[0], ignore_errors=True)
    for name, m in result["metrics"].items():
        assert stats.valid_metric_name(name) and stats.valid_unit(m["unit"])
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
