#!/usr/bin/env python3
"""Build and run the single-thread summary benchmark.

    python3 perfbench/run.py --workload <sweep|groups|randomgraph> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run compiles the program's
main sources together with the benchmark (perfbench/build.sbt) into
.bench_build; later runs reuse that build while the sources are unchanged.
The benchmark's last line of standard output is its JSON result; build
logs and Spark logs go to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "perfbench")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")

BUILD_TIMEOUT_S = 840
JVM_OPTS = [
    "-Xms3g", "-Xmx3g",
    "-XX:-UsePerfData",
] + ["--add-opens=%s=ALL-UNNAMED" % m for m in [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    files = []
    for top in (PROGRAM_SOURCES, os.path.join(BENCH, "src")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    files += [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    return sorted(files)


def build():
    """Compile if the sources changed since the last build; return the classpath."""
    if not any(f.endswith(".scala") for f in source_files() if f.startswith(PROGRAM_SOURCES)):
        fail("the program's sources (src/main/scala) are not in this checkout")
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    stamp = digest.hexdigest()
    stamp_file = os.path.join(WORK, "build.stamp")
    cp_file = os.path.join(WORK, "classpath.txt")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    os.makedirs(WORK, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
           "-Dsbt.server.autostart=false", "-J-XX:-UsePerfData",
           "export Runtime/fullClasspath"]
    try:
        res = subprocess.run(cmd, cwd=BENCH, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                             timeout=BUILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    sys.stderr.write(res.stdout)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines or "[" in lines[-1][:1]:
        fail("build failed (exit %d)" % res.returncode)
    classpath = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(classpath)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    classpath = build()
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    cmd = (["java"] + JVM_OPTS +
           ["-Djava.io.tmpdir=" + tmp, "-Dperfbench.work=" + WORK, "-cp", classpath,
            "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace])
    # Set-up and the untimed passes take about 35 s; each timed phase may
    # overshoot --seconds by half a round, and --trace 1 adds a second one
    # and the batch.
    timeout_s = 120 + (3 if args.trace == "1" else 2) * args.seconds
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % timeout_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
