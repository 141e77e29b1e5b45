#!/usr/bin/env python3
"""Host-time benchmark of the SuperNeurons workspace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release) into
$CARGO_TARGET_DIR (default `.bench_build`), then starts one process per role
so every measurement begins with cold process-global caches:

* trace 0: nine set-up-only processes plus one measuring process (for
  `depth`, one process per answer), and one untimed process that computes the
  paper's simulated numbers the workload does not produce itself. Prints the
  end-to-end metrics.
* trace 1: one measuring process in which every other pass is traced (for
  `depth`, alternate untraced and traced pass processes), and one probe
  process for the layers the workload's ops do not call. Prints the per-layer metrics, the span report and
  `telemetry.overhead`.

Details of every process go to `.bench_out/`. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["train", "depth", "serve-steady", "serve-backlog", "tune"]
SETUP_PROCS = 9
FRAMEWORKS = ["Caffe", "MXNet", "Torch", "TensorFlow", "SuperNeurons"]
# Each simulated paper number and the workload that computes it in its own
# ops; a `paper` process computes the ones a workload does not.
PAPER_SOURCE = {
    "sim_peak_bytes": "train",
    "sim_iter_ms": "train",
    "max_depth": "depth",
    "sim_p99_ms": "serve",
    "sim_step_ms": "tune",
}
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, flush=True)


class ChildError(Exception):
    pass


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=840)
    if r.returncode != 0:
        raise ChildError("build failed")
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "release", "perfbench")
    if not os.path.isfile(exe):
        raise ChildError("no binary at " + exe)
    return exe


def one_cpu():
    """Pin a child to the lowest CPU this process may run on."""
    cpu = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def child(exe, args):
    """Run one benchmark process pinned to one CPU. Pinned, the program's
    parallel paths (feasibility multi-section, admission fan-out) run on one
    thread: on a shared two-CPU host their thread start-ups otherwise make
    set-up times swing fourfold with neighbouring load."""
    r = subprocess.run([exe] + [str(a) for a in args], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=CHILD_TIMEOUT_S, preexec_fn=one_cpu())
    if r.returncode != 0:
        raise ChildError("perfbench %s exited %d: %s"
                         % (" ".join(map(str, args)), r.returncode, r.stderr.strip()[-400:]))
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    if not lines:
        raise ChildError("perfbench %s printed nothing" % " ".join(map(str, args)))
    return json.loads(lines[-1])


def quantile(v, q):
    v = sorted(v)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# The tail percentile of each workload, fixed from its sample count at the
# benchmark's run length (train ~450 iterations, depth ~100 answers, tune
# ~1,800 searches) so that at least ten samples lie beyond it, and placed
# inside a cluster of like ops rather than on the edge between two:
# depth's slowest fifth are the SuperNeurons searches, tune's slowest
# seventh the searches of one matrix point. The serve workloads summarize
# per-job times per stream in the measuring process (p50 and p99 of each
# stream, medians over streams).
TAIL_Q = {"train": 0.95, "depth": 0.90, "tune": 0.95}


def tail_q(workload, n):
    """The workload's tail percentile, lowered to the highest whole
    percentile with at least ten samples beyond it when a run has fewer
    samples than planned."""
    if n < 20:
        return 0.5
    return min(TAIL_Q[workload], int((1.0 - 10.0 / n) * 100) / 100.0)


def op_stats(workload, ops):
    """Median and tail of per-op host times, with the tail's quantile."""
    q = tail_q(workload, len(ops))
    return {"p50": quantile(ops, 0.5), "tail": quantile(ops, q), "q": q, "samples": len(ops)}


def framework_order(seed, p):
    """Pass p's framework order: the five frameworks rotated by the seed."""
    k = (seed + p) % len(FRAMEWORKS)
    return list(range(k, len(FRAMEWORKS))) + list(range(k))


def machine():
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True).stdout.strip()
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "rustc": rustc,
        "profile": "release (opt-level 3, perfbench/Cargo.toml)",
        # Every benchmark process runs pinned to one CPU, so each parallel
        # path runs on one thread.
        "cpus_per_process": 1,
        "workers": {
            "max_feasible_param_k": 1,
            "admission_fanout": 1,
            "tune_workers": 1,
        },
    }


# ---------------------------------------------------------------------------
# trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def e2e_single(exe, workload, seed, seconds):
    """train, serve-*, tune: set-up processes, then one measuring process."""
    base = ["--workload", workload, "--seed", seed]
    setups = [child(exe, ["--role", "setup"] + base) for _ in range(SETUP_PROCS)]
    m = child(exe, ["--role", "measure", "--seconds", seconds] + base)
    ok = all(s["ok"] for s in setups)
    if "op_ms" in m:
        ops = op_stats(workload, m.pop("op_ms"))
    else:
        ops = {"p50": m["op_p50_ms"], "tail": m["op_tail_ms"], "q": m["op_tail_q"],
               "samples": m["op_samples"]}
    res = {
        "setup_s": [s["setup_s"] for s in setups] + [m["setup_s"]],
        "ops": ops,
        "ops_per_s": m["ops_per_pass"] / (statistics.median(m["pass_ms"]) / 1e3),
        "rss": m["rss_mb"],
        "attempted": m["attempted"],
        "failed": m["failed"] + (0 if ok else 1),
        "sim": {k: m[k] for k in PAPER_SOURCE if k in m},
        "memo": m["memo"],
    }
    return res, [dict(s, role="setup") for s in setups] + [dict(m, role="measure")]


def e2e_depth(exe, seed, seconds):
    """depth: one process per (framework, batch 16) answer, passes in a
    seeded framework order, until `seconds` of answers have run."""
    ops, setups, rss, answers, details = [], [], [], {}, []
    attempted = failed = 0
    memo = {"setup_hits": 0, "setup_misses": 0, "hits": 0, "misses": 0}
    t0 = time.monotonic()
    p = 0
    while p == 0 or time.monotonic() - t0 < seconds:
        for i in framework_order(seed, p):
            d = child(exe, ["--role", "op", "--workload", "depth", "--seed", seed,
                            "--framework", i])
            attempted += 1
            failed += 0 if d["ok"] else 1
            ops.append(d["op_ms"])
            setups.append(d["setup_s"])
            rss.append(d["rss_mb"])
            answers.setdefault(d["framework"], set()).add(d["answer"])
            for k in memo:
                memo[k] += d["memo"][k]
            details.append(d)
        p += 1
    passes = [sum(ops[k:k + len(FRAMEWORKS)]) for k in range(0, len(ops), len(FRAMEWORKS))]
    # Every answer of one framework must agree across processes.
    failed += sum(len(a) - 1 for a in answers.values())
    sn = sorted(answers.get("SuperNeurons", {0}))[0]
    res = {
        "setup_s": setups,
        "ops": op_stats("depth", ops),
        "ops_per_s": len(FRAMEWORKS) / (statistics.median(passes) / 1e3),
        "rss": max(rss),
        "attempted": attempted,
        "failed": failed,
        "sim": {"max_depth": sn},
        "memo": memo,
        "answers": {k: sorted(v) for k, v in answers.items()},
        "passes": p,
    }
    return res, details


def run_e2e(exe, spec, workload, seed, seconds):
    if workload == "depth":
        res, details = e2e_depth(exe, seed, seconds)
    else:
        res, details = e2e_single(exe, workload, seed, seconds)
    need = sorted({PAPER_SOURCE[m["name"]] for m in spec["end_to_end"]
                   if m["name"] in PAPER_SOURCE and m["name"] not in res["sim"]})
    if need:
        paper = child(exe, ["--role", "paper", "--seed", seed, "--need", ",".join(need)])
        if not paper["ok"]:
            res["failed"] += 1
        for name, source in PAPER_SOURCE.items():
            if source in need:
                res["sim"][name] = paper[name]
        details.append(dict(paper, role="paper"))
    ops = res["ops"]
    metrics = {
        "setup_s": statistics.median(res["setup_s"]),
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": ops["p50"],
        "op_tail_ms": ops["tail"],
        "peak_rss_mb": res["rss"],
        "success_rate": 1.0 - res["failed"] / res["attempted"],
    }
    metrics.update(res["sim"])
    report = {
        "op_samples": ops["samples"],
        "op_tail_quantile": ops["q"],
        "setup_samples": len(res["setup_s"]),
        "memo": res["memo"],
        "error_rate": res["failed"] / res["attempted"],
    }
    for k in ("answers", "passes"):
        if k in res:
            report[k] = res[k]
    return metrics, res["attempted"], res["failed"], report, details


# ---------------------------------------------------------------------------
# trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def spans_path(workload, seed, tag):
    return os.path.join(ROOT, ".bench_out", "%s-seed%s-%s.spans.jsonl" % (workload, seed, tag))


def run_traced(exe, workload, seed, seconds):
    details = []
    if workload == "depth":
        # Alternate untraced and traced passes, each pass one process
        # answering for all five frameworks.
        untraced_pass, traced_pass, layer_runs, span_tables = [], [], [], []
        attempted = failed = 0
        answers = {}
        t0 = time.monotonic()
        p = 0
        while p < 2 or time.monotonic() - t0 < seconds:
            traced = p % 2
            args = ["--role", "pass", "--workload", "depth", "--seed", seed, "--trace", traced,
                    "--order", ",".join(map(str, framework_order(seed, p)))]
            if traced:
                args += ["--spans-out", spans_path(workload, seed, "pass%d" % p)]
            d = child(exe, args)
            attempted += len(FRAMEWORKS)
            failed += d["failed"]
            for k, v in d["answers"].items():
                answers.setdefault(k, set()).add(v)
            if traced:
                traced_pass.append(d["pass_ms"])
                layer_runs.append(d["layers"])
                span_tables.append(d["spans"])
            else:
                untraced_pass.append(d["pass_ms"])
            details.append(d)
            p += 1
        failed += sum(len(a) - 1 for a in answers.values())
        answers = {k: min(v) for k, v in answers.items()}
        probe = child(exe, ["--role", "probe", "--workload", "depth", "--seed", seed,
                            "--sn-depth", answers["SuperNeurons"],
                            "--caffe-depth", answers["Caffe"]])
        layers = dict(probe)
        for k in layer_runs[0]:
            layers[k] = statistics.median(run[k] for run in layer_runs)
        base = statistics.median(untraced_pass)
        layers["telemetry.overhead"] = statistics.median(traced_pass) / base
        layers["telemetry.overhead_base_ms"] = base
        spans = {}
        for t in span_tables:
            for k, v in t.items():
                spans[k] = spans.get(k, 0) + v
        details.append(dict(probe, role="probe"))
        return layers, spans, attempted, failed, details
    base = ["--workload", workload, "--seed", seed]
    m = child(exe, ["--role", "measure", "--seconds", seconds, "--trace", 1,
                    "--spans-out", spans_path(workload, seed, "measure")] + base)
    probe = child(exe, ["--role", "probe"] + base)
    layers = dict(probe)
    layers.update(m["layers"])
    m.pop("op_ms", None)
    details += [dict(m, role="measure"), dict(probe, role="probe")]
    return layers, m["spans"], m["attempted"], m["failed"], details


def span_report(workload, spans):
    wall = spans.get("wall_ms", 0.0)
    rows = sorted({k.rsplit(".", 1)[0] for k in spans if k.endswith(".self_ms")})
    log("span report [%s]: traced wall %.1f ms" % (workload, wall))
    log("  %-10s %12s %8s %8s" % ("layer", "self ms", "count", "share"))
    for layer in rows:
        s = spans[layer + ".self_ms"]
        log("  %-10s %12.3f %8d %7.1f%%" % (layer, s, spans[layer + ".count"],
                                           100.0 * s / wall if wall else 0.0))
    if workload == "train":
        log("  unattributed inside executor: utp and the sim engine run inside run_iteration")
    elif workload.startswith("serve"):
        log("  unattributed inside cluster: admission and the event loop run inside run_stream")
    elif workload == "tune":
        log("  unattributed inside tune: compiles and group iterations run inside search")
    else:
        log("  unattributed inside plan: graph analyses and the pool run inside each probe compile")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.workload not in WORKLOADS:
        sys.exit("unknown workload %r; one of %s" % (a.workload, ", ".join(WORKLOADS)))
    with open(SPEC) as f:
        spec = json.load(f)
    try:
        exe = build()
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        if a.trace:
            layers, spans, attempted, failed, details = run_traced(exe, a.workload, a.seed, a.seconds)
            wanted = spec["per_layer"]
            values = layers
            span_report(a.workload, spans)
            log("telemetry.overhead %.4f (traced ÷ untraced median, base %.3f ms)"
                % (layers["telemetry.overhead"], layers["telemetry.overhead_base_ms"]))
            report = {"spans": spans}
        else:
            values, attempted, failed, report, details = run_e2e(exe, spec, a.workload, a.seed, a.seconds)
            wanted = spec["end_to_end"]
            log("run: %s" % json.dumps(report, sort_keys=True))
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise ChildError("metrics not produced: " + ", ".join(missing))
        mach = machine()
        log("machine: %s" % json.dumps(mach, sort_keys=True))
        out_path = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace))
        with open(out_path, "w") as f:
            json.dump({"machine": mach, "report": report, "processes": details,
                       "values": values}, f, indent=1, sort_keys=True)
    except (ChildError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
