#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/perfbench.exe from
source with dune (release profile, build directory .bench_build, no shared
cache), runs one workload, and prints the program's report followed by a
machine-context line and, last, the program's one-line JSON result.  Exits
non-zero without a result when the build or the run fails.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BUILD_DIR = ".bench_build"
EXE = ROOT / BUILD_DIR / "default" / "perfbench" / "perfbench.exe"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        die("run from the root of a checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0 or not EXE.is_file():
        die(f"build failed (exit {done.returncode})")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return None


def source_digest():
    """Digest of the sources the benchmark is built from, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and (p.suffix in (".ml", ".mli", ".c", ".py") or p.name == "dune"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def loadavg():
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def context():
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "ocaml": first_line(["ocamlfind", "ocamlopt", "-version"]),
        "git_rev": first_line(["git", "rev-parse", "--short", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_digest": source_digest(),
        "loadavg": loadavg(),
    }


def flag_value(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def declared_metrics(traced):
    """The metric names BENCHMARK.json declares for this kind of run."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    args = sys.argv[1:]
    build()
    before = context()
    try:
        done = subprocess.run([str(EXE)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        die(f"run failed (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        die("the run printed no JSON result")
    if not isinstance(result, dict) or "metrics" not in result:
        die("the run printed no JSON result")
    expected = declared_metrics(flag_value(args, "--trace") == "1")
    if expected is not None and set(result["metrics"]) != expected:
        die("metrics differ from BENCHMARK.json: "
            + ", ".join(sorted(set(result["metrics"]) ^ expected)))
    for line in lines[:-1]:
        print(line)
    ctx = dict(before, loadavg_after=loadavg())
    print("context " + json.dumps(ctx, sort_keys=True))
    print(lines[-1])


if __name__ == "__main__":
    main()
