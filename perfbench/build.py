#!/usr/bin/env python3
"""Compile the program (src/main/scala) and the benchmark (perfbench/src)
into .bench_build/perfbench/classes with the Scala compiler that ships in
the Spark distribution. Skips the build when no source changed.

Usage, from the root of the repository:  python3 perfbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BUILD = Path(".bench_build") / "perfbench"
CLASSES = BUILD / "classes"
STAMP = BUILD / "classes.sha256"
SOURCES = [Path("src") / "main" / "scala", Path("perfbench") / "src"]


def spark_jars() -> Path:
    """The Spark distribution's jar directory: $SPARK_HOME/jars, else the
    one next to the spark-submit found on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home or "") / "jars"
    if not home or not jars.is_dir():
        sys.exit("perfbench: cannot find the Spark jars (set SPARK_HOME)")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    return str(exe) if exe and exe.exists() else "java"


def sources() -> list:
    for d in SOURCES:
        if not d.is_dir():
            sys.exit(f"perfbench: {d} is missing; run from the root of the repository")
    files = sorted(p for d in SOURCES for p in d.rglob("*.scala"))
    if not any(str(p).startswith(str(SOURCES[0])) for p in files):
        sys.exit(f"perfbench: no Scala sources under {SOURCES[0]}")
    return files


def classpath() -> str:
    return os.pathsep.join([str(spark_jars() / "*"), str(CLASSES)])


def build() -> None:
    files = sources()
    jars = spark_jars()
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p).encode() + b"\0" + p.read_bytes() + b"\0")
    digest.update(" ".join(sorted(os.listdir(jars))).encode())
    stamp = digest.hexdigest()
    if CLASSES.is_dir() and STAMP.is_file() and STAMP.read_text() == stamp:
        return
    staging = BUILD / "classes.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    t0 = time.time()
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-deprecation", "-d", str(staging)] + [str(p) for p in files]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        sys.exit(f"perfbench: compilation failed ({proc.returncode})")
    shutil.rmtree(CLASSES, ignore_errors=True)
    staging.rename(CLASSES)
    STAMP.write_text(stamp)
    print(f"perfbench: compiled {len(files)} files in {time.time() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    build()
