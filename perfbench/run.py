#!/usr/bin/env python3
"""Build and run the mobipriv end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload pipeline --seconds 10 --repeat 5

The script builds `mobipriv-serve` from the repository's workspace and
the `perfbench` generator from `perfbench/Cargo.toml` (release, offline,
into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs the
generator. The generator's stdout passes through unchanged: its last
line is the run's JSON result. Build output goes to stderr.

`--repeat N` runs the workload N times with seeds `seed .. seed+N-1`
and prints, for each metric, its median and its quartile spread
(Q3 - Q1) / median -- the numbers the benchmark's bounds are set from.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed: cargo " + " ".join(args))


def revision():
    """The git revision, or a digest of the sources outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in d.split(os.sep)
            for f in fs
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def run_generator(cmd, capture):
    """Runs the generator in its own process group, so that the nodes it
    boots are stopped with it even when this script is interrupted."""
    pipe = subprocess.PIPE if capture else None
    proc = subprocess.Popen(cmd, start_new_session=True, stdout=pipe, stderr=pipe, text=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out or "", err or ""


def spread(values):
    """(median, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med) if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["publish", "pipeline", "utility", "query", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times with consecutive seeds; print medians and spreads")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "service"))):
        fail("run from the repository root (no mobipriv workspace here)")
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cargo_build(["-p", "mobipriv-service", "--bin", "mobipriv-serve"])
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    generator = [
        os.path.join(target, "release", "perfbench"),
        "--serve", os.path.join(target, "release", "mobipriv-serve"),
        "--out", os.path.join(ROOT, ".bench_out"),
        "--revision", revision(),
        "--workload", args.workload,
        "--seconds", f"{args.seconds:g}",
        "--trace", args.trace,
    ]
    if args.repeat <= 0:
        sys.exit(run_generator(generator + ["--seed", str(args.seed)], capture=False)[0])

    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        code, out, err = run_generator(generator + ["--seed", str(seed)], capture=True)
        sys.stderr.write(err)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = code == 0 and result.get("correct")
        print(f"seed {seed}: {'ok' if ok else 'FAILED'} "
              f"({result.get('attempted', 0)} ops, {result.get('failed', 0)} failed)", flush=True)
        if not ok:
            sys.stdout.write(out)
            sys.exit(1)
        runs.append(result["metrics"])
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    summary = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med, rel = spread(values)
        summary[name] = {"median": med, "spread": rel, "unit": runs[0][name]["unit"]}
        print(f"  {name:<26} median {med:>12.4f} {runs[0][name]['unit']:<6} "
              f"spread {100 * rel:6.2f} %   [{', '.join(f'{v:.4g}' for v in values)}]")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "summary": summary}))


if __name__ == "__main__":
    main()
