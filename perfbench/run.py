#!/usr/bin/env python3
"""Run one benchmark workload of the CLX reproduction.

    python3 perfbench/run.py --workload phones-1m --seed 1 --seconds 25 --trace 0

Run from the root of the repository. Builds the program from source on
first use (see build.py), then starts one JVM that runs the workload and
prints a run-record line and, last, the result line:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

`--smoke` selects each workload's small setting, for checking the
benchmark itself (see smoke.py). The exit code is 0 only when every
correctness gate held.
"""
import argparse
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ("phones-1m", "corpus-47")
DRIVER_XMX = "4g"
# A fixed heap and young generation: G1 then neither grows the heap nor
# resizes eden as the run goes, so the process's footprint (peak_rss_mb)
# is the young generation, the live data and the JVM's own memory, not an
# accident of when G1 chose to expand.
HEAP_OPTIONS = [f"-Xms{DRIVER_XMX}", f"-Xmx{DRIVER_XMX}", "-Xmn1g"]
# A run must end within 180 s of its start, build excluded.
JVM_TIMEOUT_S = 170

# What spark-submit passes to a JDK 17 driver (Spark's JavaModuleOptions).
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()

    build.build()
    tmp = build.BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [build.java()] + HEAP_OPTIONS + [f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={Path(__file__).resolve().parent / 'log4j2.properties'}",
           "-Dfile.encoding=UTF-8"] + JAVA_MODULE_OPTIONS + [
           "-cp", build.classpath(), "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", str(build.BUILD / "results")] + (["--smoke"] if a.smoke else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {a.workload} did not finish within {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 124
    if proc.returncode not in (0, 1):
        sys.stderr.write(out)
        print(f"perfbench: the benchmark JVM exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
