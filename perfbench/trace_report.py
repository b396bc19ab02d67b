"""Per-layer report of a traced benchmark run.

Reads the span file the measuring program writes (one JSON object per
line: name, layer, id, parent, run, start, end, cpu_s, threads, counts)
and the run's result.json, and computes, for every layer:

* self time: a span's duration minus the part its child spans cover,
  summed over the layer's spans in one rep, median over reps;
* share of the untraced end-to-end time (pipeline_s);
* cpu_util: the layer's self CPU seconds (getrusage, all threads) over
  its self wall time times the pool's thread count — near 1/threads means
  the layer ran serially;
* the remainder the layer spans leave unexplained against the untraced
  end-to-end number, and the tracing overhead (traced minus untraced).

Spans whose layer is "pipeline" are phases (the rep's root and, for
oracle-serve, its build and restart halves); their self time is the
benchmark's own glue.  Reps have run ids >= 0; spans outside the reps
(the serial replay and the in-process serving loop) have run id -1.
run.py calls report() on every --trace 1 run.
"""

import json
import statistics

# Per-layer metrics BENCHMARK.json lists, in order.  Every workload reports
# every one; a layer the workload does not use reports 0.
PER_LAYER = [
    ("io.load_csr_s", "s"), ("io.parse_s", "s"), ("io.input_mb", "MB"),
    ("decompose.s", "s"), ("decompose.cpu_util", "ratio"),
    ("decompose.growth_steps", "count"), ("decompose.push_steps", "count"),
    ("decompose.pull_steps", "count"), ("decompose.clusters", "count"),
    ("decompose.max_radius", "hops"),
    ("quotient.s", "s"), ("quotient.cpu_util", "ratio"),
    ("quotient.nodes", "count"), ("quotient.edges", "count"),
    ("diameter.unweighted_s", "s"), ("diameter.weighted_s", "s"),
    ("diameter.cpu_util", "ratio"),
    ("kcenter.s", "s"), ("kcenter.raw_clusters", "count"),
    ("kcenter.padded_centers", "count"), ("bfs.multi_source_s", "s"),
    ("oracle.build_s", "s"), ("oracle.apsp_s", "s"), ("oracle.clusters", "count"),
    ("oracle.apsp_mb", "MB"), ("artifact.write_s", "s"), ("artifact.load_s", "s"),
    ("artifact.mb", "MB"),
    ("engine.ns_per_query", "ns"), ("server.qps", "1/s"),
    ("server.batch_p50_us", "us"), ("server.batch_p99_us", "us"),
    ("net.overhead_p50_us", "us"), ("net.frames", "count"),
    ("net.error_frames", "count"),
    ("mr.s", "s"), ("mr.cluster_s", "s"), ("mr.cpu_util", "ratio"),
    ("mr.rounds", "count"), ("mr.pairs_shuffled", "count"),
    ("mr.mb_spilled", "MB"), ("mr.spill_runs", "count"),
    ("mr.runs_merged", "count"), ("mr.combiner_ratio", "ratio"),
    ("trace.explained_s", "s"), ("trace.unexplained_s", "s"),
    ("trace.overhead_s", "s"),
]

# Layers in report order; "pipeline" is the benchmark's own glue.
LAYERS = ["graph/io", "decompose", "core/quotient", "core/diameter",
          "core/kcenter", "graph/bfs", "core/distance_oracle",
          "server/artifact", "server", "net", "mapreduce", "pipeline"]

# Phase span name -> the untraced end-to-end metric it is held against.
PHASES = {"pipeline": "pipeline_s", "oracle_build": "oracle_build_s",
          "restart": "restart_s"}


def load_spans(path):
    with open(path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"]
        s["self_cpu"] = s["cpu_s"]
        s["children"] = []
    for s in spans:
        if s["parent"] >= 0:
            p = by_id[s["parent"]]
            p["self"] -= s["dur"]
            p["self_cpu"] -= s["cpu_s"]
            p["children"].append(s)
    return spans


def descendants(span):
    out = []
    for c in span["children"]:
        out.append(c)
        out.extend(descendants(c))
    return out


def med(values):
    return statistics.median(values) if values else 0.0


class Runs:
    """Spans grouped by rep, with per-rep aggregates and their medians."""

    def __init__(self, spans):
        self.spans = spans
        self.by_run = {}
        for s in spans:
            if s["run"] >= 0:
                self.by_run.setdefault(s["run"], []).append(s)

    def per_run(self, fn):
        return med([fn(ss) for ss in self.by_run.values()])

    def total(self, pred, key="dur"):
        return self.per_run(lambda ss: sum(s[key] for s in ss if pred(s)))

    def count(self, pred, key):
        """Median over reps of the count summed over matching spans."""
        return self.per_run(
            lambda ss: sum(s["counts"].get(key, 0.0) for s in ss if pred(s)))

    def outside(self, name, key):
        vals = [s["counts"][key] for s in self.spans
                if s["run"] < 0 and s["name"] == name and key in s["counts"]]
        return vals[-1] if vals else 0.0

    def cpu_util(self, layer):
        def one(ss):
            wall = sum(s["self"] for s in ss if s["layer"] == layer)
            cpu = sum(s["self_cpu"] for s in ss if s["layer"] == layer)
            threads = max([s["threads"] for s in ss] + [1])
            return cpu / (wall * threads) if wall > 0 else 0.0
        return self.per_run(one)


def report(spans_path, result_path):
    """Returns (per-layer metrics dict, printable table lines)."""
    spans = load_spans(spans_path)
    with open(result_path) as f:
        result = json.load(f)
    r = Runs(spans)
    named = lambda *names: (lambda s: s["name"] in names)
    layer = lambda name: (lambda s: s["layer"] == name)

    untraced = med(result["untraced_s"])
    traced = med(result["traced_s"])
    explained = r.total(lambda s: s["layer"] != "pipeline", key="self")

    m = {
        "io.load_csr_s": r.total(named("load_csr")),
        "io.parse_s": r.total(named("load_edge_list")),
        "io.input_mb": r.per_run(lambda ss: max(
            [s["counts"].get("input_mb", 0.0) for s in ss] + [0.0])),
        "decompose.s": r.total(layer("decompose"), key="self"),
        "decompose.cpu_util": r.cpu_util("decompose"),
        "quotient.s": r.total(layer("core/quotient"), key="self"),
        "quotient.cpu_util": r.cpu_util("core/quotient"),
        "quotient.nodes": r.count(layer("core/quotient"), "nodes"),
        "quotient.edges": r.count(layer("core/quotient"), "edges"),
        "diameter.unweighted_s": r.total(named("exact_diameter")),
        "diameter.weighted_s": r.total(named("weighted_diameter_exact")),
        "diameter.cpu_util": r.cpu_util("core/diameter"),
        "kcenter.s": r.total(named("kcenter_approx")),
        "kcenter.raw_clusters": r.count(named("kcenter_approx"), "raw_clusters"),
        "kcenter.padded_centers": r.count(named("kcenter_approx"), "padded_centers"),
        "bfs.multi_source_s": r.total(named("multi_source_bfs", "evaluate_centers")),
        "oracle.build_s": r.total(named("build_oracle_artifact")),
        "oracle.apsp_s": r.total(named("apsp_matrix")),
        "oracle.clusters": r.count(named("apsp_matrix"), "clusters"),
        "oracle.apsp_mb": r.count(named("apsp_matrix"), "apsp_mb"),
        "artifact.write_s": r.total(named("write_oracle_artifact")),
        "artifact.load_s": r.total(named("load_oracle_artifact")),
        "artifact.mb": r.count(named("write_oracle_artifact"), "artifact_mb"),
        "engine.ns_per_query": r.outside("execute_query_serial", "ns_per_query"),
        "server.qps": r.outside("serve_in_process", "qps"),
        "server.batch_p50_us": r.outside("serve_in_process", "batch_p50_us"),
        "server.batch_p99_us": r.outside("serve_in_process", "batch_p99_us"),
        "net.frames": r.count(named("serve_wire"), "frames"),
        "net.error_frames": r.count(named("serve_wire"), "error_frames"),
        "mr.s": r.total(named("mr_cluster_diameter")),
        "mr.cluster_s": r.total(named("mr_cluster")),
        "mr.cpu_util": r.cpu_util("mapreduce"),
        "trace.explained_s": explained,
        "trace.unexplained_s": untraced - explained,
        "trace.overhead_s": traced - untraced,
    }
    for key in ("growth_steps", "push_steps", "pull_steps", "clusters",
                "max_radius"):
        m["decompose." + key] = r.count(layer("decompose"), key)
    for key in ("rounds", "pairs_shuffled", "mb_spilled", "spill_runs",
                "runs_merged", "combiner_ratio"):
        m["mr." + key] = r.count(named("mr_cluster_diameter"), key)
    wire_p50 = r.count(named("serve_wire"), "batch_p50_us")
    m["net.overhead_p50_us"] = (wire_p50 - m["server.batch_p50_us"]
                                if wire_p50 else 0.0)

    lines = [f"traced reps: {len(r.by_run)}  untraced reps: "
             f"{len(result['untraced_s'])}  pool threads: {result['threads']}",
             f"{'layer':<22}{'self_s':>10}{'share':>9}{'cpu_util':>10}"]
    for name in LAYERS:
        if not any(s["layer"] == name for s in spans if s["run"] >= 0):
            continue
        self_s = r.total(layer(name), key="self")
        share = self_s / untraced if untraced > 0 else 0.0
        lines.append(f"{name:<22}{self_s:>10.4f}{share:>9.1%}"
                     f"{r.cpu_util(name):>10.2f}")
    table = {row[0]: row[1] for row in result["table"]}
    lines.append(f"{'phase':<16}{'untraced_s':>12}{'traced_s':>10}"
                 f"{'explained_s':>13}{'unexplained_s':>15}{'overhead_s':>12}")
    table["pipeline_s"] = untraced
    for phase, metric in PHASES.items():
        if phase not in {s["name"] for s in spans} or metric not in table:
            continue
        base = table[metric]
        dur = r.total(named(phase))
        expl = r.per_run(lambda ss: sum(
            d["self"] for s in ss if s["name"] == phase
            for d in descendants(s) if d["layer"] != "pipeline"))
        lines.append(f"{phase:<16}{base:>12.4f}{dur:>10.4f}{expl:>13.4f}"
                     f"{base - expl:>15.4f}{dur - base:>12.4f}")
    return m, lines
