#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), runs it, and checks that the
metrics on its final JSON line are exactly the ones BENCHMARK.json declares for the
mode: `end_to_end` with `--trace 0`, `per_layer` with `--trace 1`. Exits nonzero on
an unknown workload, a failed build, a failed or incorrect run, or a metric name
mismatch. The JSON result line is withheld when the names do not match.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def option(args, flag):
    if flag in args:
        index = args.index(flag)
        if index + 1 < len(args):
            return args[index + 1]
    return None


def main():
    args = sys.argv[1:]
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")

    workloads = [w["name"] for w in spec["workloads"]]
    workload = option(args, "--workload")
    if workload not in workloads:
        fail(f"unknown workload {workload!r}; known: {', '.join(workloads)}")
    trace = option(args, "--trace")
    if trace not in ("0", "1"):
        fail(f"--trace takes 0 or 1, got {trace!r}")
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, cwd=ROOT, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})", 3)

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    lines = run.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    sys.stdout.flush()
    if not lines:
        fail(f"no output (exit {run.returncode})", 4)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a JSON result (exit {run.returncode})", 4)

    metrics = result.get("metrics", {})
    unknown = sorted(set(metrics) - set(declared))
    missing = sorted(set(declared) - set(metrics))
    wrong_unit = sorted(n for n in metrics if n in declared and metrics[n]["unit"] != declared[n])
    if unknown or missing or wrong_unit:
        fail(f"metrics differ from BENCHMARK.json {section}: unknown {unknown}, "
             f"missing {missing}, wrong unit {wrong_unit}", 5)
    if run.returncode != 0 or not result.get("correct") or result.get("failed"):
        print(lines[-1])
        fail(f"run failed or produced wrong outputs (exit {run.returncode})", 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
