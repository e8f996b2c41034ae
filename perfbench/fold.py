#!/usr/bin/env python3
"""Fold traced benchmark runs into the layer x workload table.

    python3 perfbench/fold.py [RECORD.json ...]

A record is what `perfbench/run.py --trace 1` leaves in
.bench_build/results/ (the default input is every traced record
there).  For each workload the table gives every layer's self time,
its share of the traced replay's wall, its calls, and the counts
attributed to it; the unaccounted remainder is the glue between calls.
Records of one workload (several seeds) are summed.

The module also computes the per-layer metrics run.py reports.
"""
import glob
import json
import os
import sys
from collections import defaultdict

# The layered replay's leaf spans are "<layer>.<call>"; glue spans
# (replay / circuit / run) only group them.
GLUE = "unaccounted"


def self_times(spans):
    """Per-span self time in ns: duration minus the children's."""
    self_ns = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            self_ns[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return self_ns


def layer_of(span):
    return span["name"].split(".")[0] if span["leaf"] else GLUE


def fold(spans):
    """{layer: {"ns", "calls", "counts"}} and {call name: {...}}."""
    layers = defaultdict(lambda: {"ns": 0, "calls": 0, "counts": defaultdict(int)})
    calls = defaultdict(lambda: {"ns": 0, "max_ns": 0, "calls": 0,
                                 "counts": defaultdict(int)})
    for span, ns in zip(spans, self_times(spans)):
        for row in (layers[layer_of(span)], calls[span["name"]]):
            row["ns"] += ns
            row["calls"] += 1
            for k, v in span["counters"].items():
                row["counts"][k] += v
        calls[span["name"]]["max_ns"] = max(calls[span["name"]]["max_ns"], ns)
    return layers, calls


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(doc):
    """The per-layer metrics of one traced run (see BENCHMARK.json)."""
    spans = doc["spans"]
    _, calls = fold(spans)

    def ms(name):
        return calls[name]["ns"] / 1e6

    def count(name, key):
        return calls[name]["counts"].get(key, 0)

    atpg = "atpg.run"
    build = "reseed.build"
    opt = "reseed.optimize"
    busy_ns = sum(ns for s, ns in zip(spans, self_times(spans)) if s["leaf"])
    wall_on = doc["layered_on_ns"]
    sweep_s = doc["sweep_ns"][0] / 1e9
    camp = doc["campaign"]
    tiers = sum(count(build, "sim.tier_" + t) for t in ("narrow", "wide4", "wide8"))
    sat_calls = count(atpg, "atpg.sat_calls")
    sim_campaigns = count(atpg, "sim.campaigns")
    return {
        "netlist.parse_ms": (ms("netlist.parse"), "ms"),
        "netlist.compile_ms": (ms("netlist.compile"), "ms"),
        "fault.collapse_ms": (ms("fault.collapse"), "ms"),
        "fault.collapsed": (count("fault.collapse", "fault.collapsed"), "count"),
        "atpg.run_ms": (ms(atpg), "ms"),
        "atpg.critical_ms": (calls[atpg]["max_ns"] / 1e6, "ms"),
        "atpg.patterns": (count(atpg, "atpg.patterns"), "count"),
        "atpg.random_patterns": (count(atpg, "atpg.random_patterns"), "count"),
        "atpg.podem_patterns": (count(atpg, "atpg.podem_patterns"), "count"),
        "atpg.redundant": (count(atpg, "atpg.redundant"), "count"),
        "atpg.sat_calls": (sat_calls, "count"),
        "atpg.sat_conflicts": (count(atpg, "atpg.sat_conflicts"), "count"),
        "atpg.sat_yield": (ratio(count(atpg, "atpg.sat_detected") +
                                 count(atpg, "atpg.sat_redundant"), sat_calls),
                           "ratio"),
        "sim.setup_ms": (ms("sim.setup"), "ms"),
        "sim.campaigns.atpg": (sim_campaigns, "count"),
        "sim.blocks.atpg": (count(atpg, "sim.blocks"), "count"),
        "sim.blocks_per_campaign.atpg": (ratio(count(atpg, "sim.blocks"),
                                               sim_campaigns), "ratio"),
        "sim.blocks.reseed": (count(build, "sim.blocks"), "count"),
        "sim.faults_dropped.reseed": (count(build, "sim.faults_dropped"), "count"),
        "sim.wide8_share": (ratio(count(build, "sim.tier_wide8"), tiers), "ratio"),
        "tpg.make_ms": (ms("tpg.make"), "ms"),
        "reseed.build_ms": (ms(build), "ms"),
        "reseed.optimize_ms": (ms(opt), "ms"),
        "reseed.packings": (count(build, "builder.packings"), "count"),
        "reseed.matrix_cells": (count(build, "reseed.matrix_cells"), "count"),
        "reseed.uncoverable": (count(build, "reseed.uncoverable"), "count"),
        "cover.residual_cells": (count(opt, "cover.residual_cells"), "count"),
        "cover.necessary_share": (ratio(count(opt, "cover.necessary"),
                                        count(opt, "cover.triplets")), "ratio"),
        "cover.nodes": (count(opt, "cover.nodes"), "count"),
        "cover.optimal_share": (ratio(count(opt, "cover.optimal"),
                                      calls[opt]["calls"]), "ratio"),
        "campaign.park_ms": (camp["scheduler.park_ns"] / 1e6, "ms"),
        "campaign.steals": (camp["scheduler.steals"], "count"),
        "campaign.degraded_loop_share": (ratio(camp["scheduler.loops_degraded"],
                                               camp["scheduler.loops"]), "ratio"),
        "campaign.pool_use": (ratio(busy_ns / 1e9, doc["jobs"] * sweep_s), "ratio"),
        "trace.accounted_pct": (100.0 * ratio(busy_ns, wall_on), "%"),
        "trace_overhead_pct": (100.0 * ratio(wall_on - doc["layered_off_ns"],
                                             doc["layered_off_ns"]), "%"),
    }


def table(records):
    """Markdown layer table per workload, then layer x workload shares."""
    by_workload = defaultdict(list)
    for r in records:
        by_workload[r["workload"]].append(r)
    out = []
    shares = {}
    for workload, recs in by_workload.items():
        layers = defaultdict(lambda: {"ns": 0, "calls": 0, "counts": defaultdict(int)})
        wall = sum(r["layered_on_ns"] for r in recs)
        for r in recs:
            for name, row in fold(r["spans"])[0].items():
                layers[name]["ns"] += row["ns"]
                layers[name]["calls"] += row["calls"]
                for k, v in row["counts"].items():
                    layers[name]["counts"][k] += v
        seeds = ", ".join(str(r["seed"]) for r in recs)
        out.append(f"### {workload} (seeds {seeds}; traced wall {wall / 1e6:.1f} ms)")
        out.append("")
        out.append("| layer | self ms | % wall | calls | attributed counts |")
        out.append("|---|---:|---:|---:|---|")
        order = sorted((k for k in layers if k != GLUE), key=lambda k: -layers[k]["ns"])
        for name in order + [GLUE]:
            row = layers[name]
            counts = " ".join(f"{k}={v}" for k, v in sorted(row["counts"].items()))
            pct = 100.0 * ratio(row["ns"], wall)
            shares.setdefault(name, {})[workload] = pct
            out.append(f"| {name} | {row['ns'] / 1e6:.1f} | {pct:.1f} | "
                       f"{row['calls']} | {counts} |")
        out.append("")
    workloads = list(by_workload)
    out.append("### % of traced wall, layer x workload")
    out.append("")
    out.append("| layer | " + " | ".join(workloads) + " |")
    out.append("|---|" + "---:|" * len(workloads))
    for name in sorted(shares, key=lambda k: (k == GLUE, k)):
        cells = " | ".join(f"{shares[name].get(w, 0.0):.1f}" for w in workloads)
        out.append(f"| {name} | {cells} |")
    return "\n".join(out)


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = argv or sorted(glob.glob(os.path.join(root, ".bench_build", "results",
                                                  "*-trace1.json")))
    if not paths:
        print("fold: no traced records; run perfbench/run.py --trace 1 first",
              file=sys.stderr)
        return 2
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    print(table(records))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
