#!/usr/bin/env python3
"""Self-test of the perf gate: runs scripts/perf_trend.py on small edits
of the committed BENCH_perf.json and checks its exit status. A crash is
not a verdict, so every case also requires a clean exit (no traceback).

usage: python3 scripts/test_perf_trend.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "perf_trend.py")
COMMITTED = os.path.join(HERE, os.pardir, "BENCH_perf.json")
EPS = 1e-3

with open(COMMITTED) as f:
    BASE = json.load(f)

# The keys each section must carry (other keys are informational).
SECTIONS = {
    "jobs_cache": ["cold_s", "warm_s", "speedup", "hit_rate"],
    "obs_overhead": ["obs_on_s", "obs_off_s", "ratio"],
    "resilience": ["hooks_on_s", "hooks_off_s", "ratio"],
    "persistence": ["cold_s", "warm_mem_s", "warm_restart_s", "restart_ratio",
                    "replay_s_per_1k", "records_replayed"],
    "keepalive": ["cores", "fresh_rtt_s", "reused_rtt_s", "speedup", "connects"],
    "sharding": ["cores", "shards", "keys", "single_rps", "sharded_rps", "speedup"],
}


def run_gate(doc, *options):
    """The gate's exit status on `doc` as the new file, against the
    committed baseline."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "new.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        done = subprocess.run([sys.executable, GATE, *options, COMMITTED, path],
                              capture_output=True, text=True)
    assert "Traceback" not in done.stderr, done.stderr
    return done.returncode


def edited(edit):
    doc = copy.deepcopy(BASE)
    edit(doc)
    return doc


def path_row(doc, name):
    return next(p for p in doc["paths"] if p["name"] == name)


def parse_row(doc, name):
    return next(p for p in doc["parse"] if p["name"] == name)


def set_bin_csv(doc, ratio):
    parse_row(doc, "bin")["read_mfix_s"] = ratio * parse_row(doc, "csv")["read_mfix_s"]


def set_on_cores(section, value):
    def edit(doc):
        doc[section]["speedup"] = value
        doc[section]["cores"] = 2
    return edit


# (gate, bound, whether the bound is a floor, edit setting the value).
GATES = [
    ("paths", 0.6 * path_row(BASE, "tracker")["speedup"], True,
     lambda v: lambda d: path_row(d, "tracker").__setitem__("speedup", v)),
    ("reident", 1.01, True, lambda v: lambda d: path_row(d, "reident").__setitem__("speedup", v)),
    ("parse bin/csv", 3.0, True, lambda v: lambda d: set_bin_csv(d, v)),
    ("jobs_cache", 10.0, True, lambda v: lambda d: d["jobs_cache"].__setitem__("speedup", v)),
    ("obs_overhead", 1.05, False, lambda v: lambda d: d["obs_overhead"].__setitem__("ratio", v)),
    ("resilience", 1.05, False, lambda v: lambda d: d["resilience"].__setitem__("ratio", v)),
    ("persistence", 2.0, False,
     lambda v: lambda d: d["persistence"].__setitem__("restart_ratio", v)),
    ("keepalive", 1.5, True, lambda v: set_on_cores("keepalive", v)),
    ("sharding", 1.5, True, lambda v: set_on_cores("sharding", v)),
]


class PerfTrendTest(unittest.TestCase):
    def test_committed_file_passes_against_itself(self):
        self.assertEqual(run_gate(BASE), 0)

    def test_shape_violations_fail(self):
        cases = {
            "bench is not perf": lambda d: d.__setitem__("bench", "eval"),
            "empty paths": lambda d: d.__setitem__("paths", []),
            "parse row missing": lambda d: d["parse"].pop(),
            "extra parse row": lambda d: d["parse"].append(dict(d["parse"][0], name="json")),
            "duplicate parse row": lambda d: d["parse"].append(d["parse"][0]),
            "keepalive.connects 2": lambda d: d["keepalive"].__setitem__("connects", 2),
            "sharding.shards 3": lambda d: d["sharding"].__setitem__("shards", 3),
            "section not an object": lambda d: d.__setitem__("jobs_cache", []),
        }
        for key in ["name", "naive_s", "indexed_s", "speedup"]:
            cases[f"path key {key} dropped"] = lambda d, k=key: d["paths"][-1].pop(k)
        for key in ["name", "read_mfix_s", "write_mfix_s", "bytes_per_fix"]:
            cases[f"parse key {key} dropped"] = lambda d, k=key: d["parse"][1].pop(k)
        for section, keys in SECTIONS.items():
            cases[f"section {section} dropped"] = lambda d, s=section: d.pop(s)
            for key in keys:
                cases[f"{section}.{key} dropped"] = lambda d, s=section, k=key: d[s].pop(k)
        for name, edit in cases.items():
            with self.subTest(name):
                self.assertEqual(run_gate(edited(edit)), 1)

    def test_each_gate_fails_just_past_its_bound(self):
        for name, bound, floor, setter in GATES:
            past, inside = (bound * (1 - EPS), bound * (1 + EPS))
            if not floor:
                past, inside = inside, past
            with self.subTest(name, value=past):
                self.assertEqual(run_gate(edited(setter(past))), 1)
            with self.subTest(name, value=inside):
                self.assertEqual(run_gate(edited(setter(inside))), 0)

    def test_one_core_skips_keepalive_and_sharding(self):
        def edit(doc):
            for section in ("keepalive", "sharding"):
                doc[section].update(cores=1, speedup=0.5)
        self.assertEqual(run_gate(edited(edit)), 0)

    def test_committed_path_missing_from_new_file_fails(self):
        edit = lambda d: d.__setitem__("paths", [p for p in d["paths"] if p["name"] != "tracker"])
        self.assertEqual(run_gate(edited(edit)), 1)

    def test_options_are_usage_errors(self):
        for option in ["--floor=0.6", "--help"]:
            with self.subTest(option):
                self.assertEqual(run_gate(BASE, option), 2)


if __name__ == "__main__":
    unittest.main()
