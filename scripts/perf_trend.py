#!/usr/bin/env python3
"""Perf-trend gate: check a regenerated BENCH_perf.json against the
committed baseline. This script is the only reader of BENCH_perf.json.

usage: perf_trend.py BASELINE NEW

Both files must first have the shape `mobipriv-bench-perf` writes: every
section with every key in `SECTION_KEYS`, parse rows for exactly csv,
ndjson and bin, one dial in `keepalive` and four shards in `sharding`.
Then each gated value prints one line:

* Every committed `paths` entry: the regenerated naive/indexed speedup
  must stay at least `FLOOR` of the committed one. Ratios divide out
  machine speed, so the gate catches accidental de-indexing without
  flaking on slow or noisy runners the way absolute times would.
* The `ABSOLUTE` table, each a machine-independent ratio of the new file:
  - reident: the pruned profile scan keeps beating the brute-force
    reference, above the historical ~1.01x plateau.
  - parse bin/csv: binary read throughput over CSV's, the binary wire
    format's reason to exist.
  - jobs_cache cold/warm: the cold side is CPU-bound and the warm side a
    loopback round trip, so the ratio scales with machine shape; any
    machine that skips upload, parse and compute on a hit clears 10x.
  - obs_overhead: the engine's instrumented run against the bare stage
    loop (`Mechanism::protect`), min-of-N.
  - resilience: `try_protect` with a live deadline token against plain
    `protect` — cancellation must be free when the deadline is generous.
  - persistence: a hit served from state recovered off the journal at
    boot against the in-memory hit on the same machine.
  - keepalive (fresh/reused connection RTT) and sharding (4 one-worker
    shards behind the router against one node): skipped when the
    section's `cores` is below 2, where the round trip is
    context-switch-bound and four shards cannot outrun one.

The thresholds are the constants below. Any `--...` argument is a usage
error, so a stale flag cannot pass unnoticed.

Exit status: 0 = every gate holds, 1 = a shape violation, a regression
or a committed path missing from the new file, 2 = usage error or an
unreadable file.
"""

import json
import operator
import sys

FLOOR = 0.6
JOBS_FLOOR = 10.0
BIN_FLOOR = 3.0
REIDENT_FLOOR = 1.01
OBS_CEILING = 1.05
RESTART_CEILING = 2.0
KEEPALIVE_FLOOR = 1.5
SHARDING_FLOOR = 1.5

# The keys of every row of the list sections and of each section object.
SECTION_KEYS = {
    "paths": {"name", "naive_s", "indexed_s", "speedup"},
    "parse": {"name", "read_mfix_s", "write_mfix_s", "bytes_per_fix"},
    "jobs_cache": {"cold_s", "warm_s", "speedup", "hit_rate"},
    "obs_overhead": {"obs_on_s", "obs_off_s", "ratio"},
    "resilience": {"hooks_on_s", "hooks_off_s", "ratio"},
    "persistence": {"cold_s", "warm_mem_s", "warm_restart_s", "restart_ratio",
                    "replay_s_per_1k", "records_replayed"},
    "keepalive": {"cores", "fresh_rtt_s", "reused_rtt_s", "speedup", "connects"},
    "sharding": {"cores", "shards", "keys", "single_rps", "sharded_rps", "speedup"},
}


def speedups(doc):
    return {p["name"]: p["speedup"] for p in doc["paths"]}


def read_rate(doc, name):
    return next(p["read_mfix_s"] for p in doc["parse"] if p["name"] == name)


# (gate, value in the new file, comparison, bound, what it compares).
ABSOLUTE = [
    ("reident", lambda d: speedups(d).get("reident"), ">", REIDENT_FLOOR,
     "pruned scan vs brute force"),
    ("parse bin/csv", lambda d: read_rate(d, "bin") / read_rate(d, "csv"), ">=",
     BIN_FLOOR, "read throughput"),
    ("jobs_cache", lambda d: d["jobs_cache"]["speedup"], ">=", JOBS_FLOOR,
     "cold vs warm"),
    ("obs_overhead", lambda d: d["obs_overhead"]["ratio"], "<=", OBS_CEILING,
     "engine run vs bare stage loop"),
    ("resilience", lambda d: d["resilience"]["ratio"], "<=", OBS_CEILING,
     "live deadline token vs none"),
    ("persistence", lambda d: d["persistence"]["restart_ratio"], "<=",
     RESTART_CEILING, "warm-restart hit vs in-memory hit"),
    ("keepalive", lambda d: d["keepalive"]["speedup"], ">=", KEEPALIVE_FLOOR,
     "fresh vs reused connection RTT"),
    ("sharding", lambda d: d["sharding"]["speedup"], ">=", SHARDING_FLOOR,
     "4 shards vs 1 node throughput"),
]
NEEDS_CORES = {"keepalive", "sharding"}
COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def shape_violations(doc):
    """The shape rules `doc` breaks, by name."""
    rules = [
        ("bench is perf", lambda: doc["bench"] == "perf"),
        ("paths is not empty", lambda: len(doc["paths"]) > 0),
        ("parse rows are csv, ndjson and bin",
         lambda: sorted(p["name"] for p in doc["parse"]) == ["bin", "csv", "ndjson"]),
    ]
    for section, keys in SECTION_KEYS.items():
        rows = lambda s=section: doc[s] if s in ("paths", "parse") else [doc[s]]
        rules.append((f"{section} has {', '.join(sorted(keys))}",
                      lambda rows=rows, keys=keys: all(keys <= r.keys() for r in rows())))
    rules.append(("keepalive.connects is 1", lambda: doc["keepalive"]["connects"] == 1))
    rules.append(("sharding.shards is 4", lambda: doc["sharding"]["shards"] == 4))
    broken = []
    for rule, holds in rules:
        try:
            ok = holds()
        except (KeyError, TypeError, AttributeError):
            ok = False
        if not ok:
            broken.append(rule)
    return broken


def gate(name, value, compare, bound, what):
    """Prints one gated value and returns whether it holds."""
    holds = COMPARE[compare](value, bound)
    print(f"{name:<16} {value:>9.3f}  {'ok' if holds else 'FAIL':<4}  {compare} {bound:g} {what}")
    return holds


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_trend: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main(argv):
    if len(argv) != 2 or any(a.startswith("--") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    baseline, fresh = load(argv[0]), load(argv[1])
    broken = [f"{path}: {rule}" for path, doc in zip(argv, (baseline, fresh))
              for rule in shape_violations(doc)]
    for violation in broken:
        print(f"perf_trend: shape violation in {violation}", file=sys.stderr)
    if broken:
        return 1

    ok = True
    new = speedups(fresh)
    for name, committed in sorted(speedups(baseline).items()):
        if name not in new:
            print(f"{name:<16} {'MISSING':>9}  FAIL  committed path absent from the new file")
            ok = False
            continue
        ok &= gate(name, new[name] / committed, ">=", FLOOR,
                   f"of committed {committed:.2f}x (now {new[name]:.2f}x)")
    for name, value, compare, bound, what in ABSOLUTE:
        got = value(fresh)
        if got is None:
            continue
        cores = fresh[name]["cores"] if name in NEEDS_CORES else 2
        if cores < 2:
            print(f"{name:<16} {got:>9.3f}  skip  {cores} core; {what} needs >= 2")
            continue
        ok &= gate(name, got, compare, bound, what)

    if not ok:
        print(
            "perf_trend: regression — an index, the result cache or a transport win "
            "stopped engaging (see DESIGN.md §6). If the change is intentional, "
            "regenerate BENCH_perf.json with: "
            "cargo run --release -p mobipriv-bench --bin mobipriv-bench-perf -- "
            "--users 1000 --out BENCH_perf.json",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
