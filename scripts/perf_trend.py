#!/usr/bin/env python3
"""Perf-trend gate: compare a regenerated BENCH_perf.json against the
committed baseline and fail when any path's *speedup ratio* regresses
below a floor fraction (`FLOOR`, 0.6) of the committed value.

Ratios (naive/indexed, cold/warm) divide out machine speed, so the gate
catches accidental de-indexing or cache-bypassing without flaking on
slow or noisy CI runners the way absolute-time gates do.

The jobs_cache section is gated differently: its cold side is
CPU-bound (parse + compute) while its warm side is bounded by loopback
round trips, so the cold/warm ratio scales with machine shape and a
committed-ratio gate would flake on faster runners. It gets an
*absolute* floor instead (`JOBS_FLOOR`, 10x, the job cache's
acceptance threshold): any machine that skips the upload + parse +
compute on a warm hit clears it by an order of magnitude.

The parse section is likewise gated on a machine-independent ratio:
binary read throughput must stay at least `BIN_FLOOR` (3x) times CSV
read throughput — the wire format's reason to exist — rather than on
absolute Mfix/s, which scales with the runner.

The reident paths entry also has a hard floor (`REIDENT_FLOOR`, 1.01):
the pruned column-oriented profile scan must keep beating the
brute-force reference, not slide back to the historical ~1.01x
plateau.

The obs_overhead section is an absolute ceiling (`OBS_CEILING`, 1.05):
the engine run with observability hooks enabled must stay within 5% of
the run with them disabled — the zero-cost-when-idle contract of the
metrics/tracing layer, measured as a min-of-N ratio so it divides out
machine speed.

The resilience section shares the obs ceiling: the engine run through
`try_protect` with a live deadline token (a clock read between
per-trace kernels) must stay within 5% of the plain `protect` path —
cancellation support must be free when the deadline is generous.

The persistence section is an absolute ceiling on `restart_ratio`
(`RESTART_CEILING`, 2.0): a warm-restart cache hit — served from state
recovered off the journal at boot — must stay within 2x of the
in-memory warm hit on the same machine. Both sides are loopback round
trips against the same server build, so the ratio divides out machine
speed; a blowout means the recovered path re-reads disk or recomputes
on the request path.

The keepalive section is an absolute floor (`KEEPALIVE_FLOOR`, 1.5) on
the fresh-connection/reused-connection warm RTT ratio: reusing a
keep-alive connection must stay meaningfully faster than dialing per
request. It is only gated when the bench machine has >= 2 cores — on
one core the round trip is context-switch-bound on both sides, which
genuinely compresses the ratio toward 1 regardless of the transport's
health (the recorded `cores` field makes the run self-describing).

The sharding section is an absolute floor (`SHARDING_FLOOR`, 1.5) on
the N=4-shards/N=1-node aggregate-throughput ratio, under the same
>= 2 cores guard: four one-worker shards behind the router cannot
physically outrun one one-worker node when every worker shares a
single core, so a one-core gate would only measure the proxy overhead.

Every threshold is one of the constants below. The script takes no
options: any `--…` argument is a usage error, so a stale flag cannot
pass unnoticed.

usage: perf_trend.py BASELINE NEW

Exit status: 0 = no regression, 1 = regression (or a baseline path
missing from the regenerated file), 2 = usage/parse error.
"""

import json
import sys

FLOOR = 0.6
JOBS_FLOOR = 10.0
BIN_FLOOR = 3.0
REIDENT_FLOOR = 1.01
OBS_CEILING = 1.05
RESTART_CEILING = 2.0
KEEPALIVE_FLOOR = 1.5
SHARDING_FLOOR = 1.5


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

    def speedups(doc):
        return {p["name"]: p["speedup"] for p in doc.get("paths", [])}

    base, new = speedups(baseline), speedups(fresh)
    if not base:
        print("perf_trend: baseline has no paths", file=sys.stderr)
        return 2

    failed = False
    print(f"{'path':>16} {'committed':>10} {'regenerated':>11} {'ratio':>7}  gate (>= {FLOOR:.2f})")
    for name, committed in sorted(base.items()):
        got = new.get(name)
        if got is None:
            print(f"{name:>16} {committed:>10.2f} {'MISSING':>11}      -  FAIL")
            failed = True
            continue
        ratio = got / committed
        verdict = "ok" if ratio >= FLOOR else "FAIL"
        failed = failed or ratio < FLOOR
        print(f"{name:>16} {committed:>10.2f}x {got:>10.2f}x {ratio:>6.2f}  {verdict}")
    for name in sorted(set(new) - set(base)):
        print(f"{name:>16} {'(new)':>10} {new[name]:>10.2f}x      -  ok (no baseline)")

    # reident: hard floor on top of the committed-ratio gate (see module
    # docstring).
    got = new.get("reident")
    if got is not None:
        verdict = "ok" if got > REIDENT_FLOOR else "FAIL"
        failed = failed or got <= REIDENT_FLOOR
        print(
            f"{'reident':>16} {'(abs)':>10} {got:>10.2f}x      -  "
            f"{verdict} (paths > {REIDENT_FLOOR:.2f}x plateau)"
        )

    # parse: gate the bin-vs-csv read-throughput ratio, not absolute
    # Mfix/s (see module docstring).
    parse = {p["name"]: p for p in fresh.get("parse", [])}
    base_parse = {p["name"]: p for p in baseline.get("parse", [])}
    for name in sorted(set(base_parse) - set(parse)):
        print(f"{name:>16} {'-':>10} {'MISSING':>11}      -  FAIL (parse)")
        failed = True
    if "bin" in parse and "csv" in parse:
        got = parse["bin"]["read_mfix_s"] / parse["csv"]["read_mfix_s"]
        verdict = "ok" if got >= BIN_FLOOR else "FAIL"
        failed = failed or got < BIN_FLOOR
        print(
            f"{'parse bin/csv':>16} {'(abs)':>10} {got:>10.2f}x      -  "
            f"{verdict} (>= {BIN_FLOOR:.0f}x read throughput)"
        )
    elif base_parse:
        print(f"{'parse bin/csv':>16} {'-':>10} {'MISSING':>11}      -  FAIL (parse)")
        failed = True

    # jobs_cache: absolute floor (machine-shape-independent, see above).
    jobs = fresh.get("jobs_cache")
    if jobs is None:
        print(f"{'jobs_cache':>16} {'-':>10} {'MISSING':>11}      -  FAIL")
        failed = True
    else:
        got = jobs["speedup"]
        verdict = "ok" if got >= JOBS_FLOOR else "FAIL"
        failed = failed or got < JOBS_FLOOR
        print(f"{'jobs_cache':>16} {'(abs)':>10} {got:>10.2f}x      -  {verdict} (>= {JOBS_FLOOR:.0f}x cold/warm)")

    # obs_overhead: absolute ceiling on the enabled/disabled engine-run
    # ratio (the zero-cost-when-idle contract, see module docstring).
    obs = fresh.get("obs_overhead")
    if obs is None:
        print(f"{'obs_overhead':>16} {'-':>10} {'MISSING':>11}      -  FAIL")
        failed = True
    else:
        got = obs["ratio"]
        verdict = "ok" if got <= OBS_CEILING else "FAIL"
        failed = failed or got > OBS_CEILING
        print(
            f"{'obs_overhead':>16} {'(abs)':>10} {got:>10.3f}x      -  "
            f"{verdict} (<= {OBS_CEILING:.2f}x with hooks enabled)"
        )

    # persistence: absolute ceiling on the warm-restart/in-memory hit
    # ratio (see module docstring). Only gated when the baseline has the
    # section, so older baselines don't fail on the new bench.
    persist = fresh.get("persistence")
    if persist is None:
        if baseline.get("persistence") is not None:
            print(f"{'persistence':>16} {'-':>10} {'MISSING':>11}      -  FAIL")
            failed = True
    else:
        got = persist["restart_ratio"]
        verdict = "ok" if got <= RESTART_CEILING else "FAIL"
        failed = failed or got > RESTART_CEILING
        print(
            f"{'persistence':>16} {'(abs)':>10} {got:>10.2f}x      -  "
            f"{verdict} (warm-restart hit <= {RESTART_CEILING:.1f}x in-memory hit)"
        )

    # resilience: absolute ceiling on the deadline-token/no-token engine
    # run (cancellation hooks must be free when the budget is generous).
    # Shares the obs ceiling; only gated when the baseline has the
    # section, so older baselines don't fail on the new bench.
    resilience = fresh.get("resilience")
    if resilience is None:
        if baseline.get("resilience") is not None:
            print(f"{'resilience':>16} {'-':>10} {'MISSING':>11}      -  FAIL")
            failed = True
    else:
        got = resilience["ratio"]
        verdict = "ok" if got <= OBS_CEILING else "FAIL"
        failed = failed or got > OBS_CEILING
        print(
            f"{'resilience':>16} {'(abs)':>10} {got:>10.3f}x      -  "
            f"{verdict} (<= {OBS_CEILING:.2f}x with a live deadline token)"
        )

    # keepalive / sharding: absolute floors on the connection-layer and
    # scale-out ratios, gated only on >= 2 cores (see module
    # docstring). Only required when the baseline has the section, so
    # older baselines don't fail on the new bench.
    for section, floor_value, what in (
        ("keepalive", KEEPALIVE_FLOOR, "reused vs fresh-conn warm RTT"),
        ("sharding", SHARDING_FLOOR, "4 shards vs 1 node throughput"),
    ):
        doc = fresh.get(section)
        if doc is None:
            if baseline.get(section) is not None:
                print(f"{section:>16} {'-':>10} {'MISSING':>11}      -  FAIL")
                failed = True
            continue
        got = doc["speedup"]
        cores = doc.get("cores", 1)
        if cores < 2:
            print(
                f"{section:>16} {'(abs)':>10} {got:>10.2f}x      -  "
                f"skipped ({cores} core, {what} needs >= 2)"
            )
            continue
        verdict = "ok" if got >= floor_value else "FAIL"
        failed = failed or got < floor_value
        print(
            f"{section:>16} {'(abs)':>10} {got:>10.2f}x      -  "
            f"{verdict} (>= {floor_value:.1f}x {what})"
        )

    if failed:
        print(
            "perf_trend: speedup regression — a spatial index or the result cache "
            "stopped engaging (see DESIGN.md §9/§10). If the change is intentional, "
            "regenerate BENCH_perf.json with: "
            "cargo run --release -p mobipriv-bench --bin mobipriv-bench-perf -- "
            "--users 1000 --out BENCH_perf.json",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
