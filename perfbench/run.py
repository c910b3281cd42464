#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload build-small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It compiles the program and the harness
into .bench_build/ (perfbench/build.sh; skipped when the sources are
unchanged), then starts one JVM (repro.perfbench.Main) that sets up Spark and
the generated inputs, builds the ontology back to back for --seconds, checks
every build against the gold ontology and prints the result as its last line:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --scale test|bench swaps the workload's generator size for
repro.eval.Tables.TestScale or BenchScale (used by perfbench/stage_table.py),
--scale tiny for the smallest one that still mines (smoke runs).
The exit code is non-zero, and no result is printed, when the build or the
run fails or the run exceeds its time limit.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
JSA = os.path.join(OUT, "perfbench.jsa")
WORKLOADS = ("build-small", "build-large")
HEAP = "4g"
# Spark on Java 17 needs these packages opened (as spark-submit does).
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.io",
         "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
         "java.base/sun.security.action", "java.base/sun.util.calendar"]


def build():
    """Compile into OUT; return the classpath, or None when the build fails."""
    try:
        subprocess.run(["bash", os.path.join(HERE, "build.sh"), OUT],
                       stdout=sys.stderr, check=True, timeout=850)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    with open(os.path.join(OUT, "classpath.spark")) as f:
        jars = f.read().strip()
    return os.path.join(OUT, "perfbench.jar") + os.pathsep + os.path.join(jars, "*")


def source_id():
    """The git commit when there is one, else the hash of the sources built."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        with open(os.path.join(OUT, "classes.stamp")) as f:
            return "src-sha256:" + f.read().strip()[:16]


def run_jvm(classpath, args, timeout, jvm_opts=()):
    tmp = os.path.join(OUT, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    # a fixed heap and the parallel collector: under G1, one DocTaggingEval.run
    # pass took anywhere from 0.9 to 2.3 s in one warm JVM
    # -XX:-UsePerfData: no hsperfdata file in the system temp directory
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           "-Xss16m", *jvm_opts,
           *[f"--add-opens={p}=ALL-UNNAMED" for p in OPENS],
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
           "-Dspark.driver.host=127.0.0.1",
           "-Dlog4j2.configurationFile=classpath:log4j2.properties",
           f"-Dperfbench.source={source_id()}",
           "-cp", classpath, "repro.perfbench.Main", *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: run exceeded {timeout} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        print(f"run.py: JVM exited with {proc.returncode}", file=sys.stderr)
        return None
    return out


def class_data_archive(classpath):
    """Record, once per build, the classes a run loads into a class-data
    archive (CDS), so each run's JVM maps them instead of loading Spark's
    jars class by class. The recording run is a smoke run at the tiny scale.
    """
    if os.path.exists(JSA):
        return True
    out = run_jvm(classpath, ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                              "--trace", "0", "--scale", "tiny"], 600,
                  [f"-XX:ArchiveClassesAtExit={JSA}"])
    if out is None or not os.path.exists(JSA):
        print("run.py: recording the class-data archive failed", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", choices=("test", "bench", "tiny"))
    ap.add_argument("--timeout", type=int, default=170,
                    help="kill the run after this many seconds (default 170)")
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    classpath = build()
    if classpath is None:
        return 2
    if not class_data_archive(classpath):
        return 1
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace] + (["--scale", a.scale] if a.scale else [])
    out = run_jvm(classpath, args, a.timeout, [f"-XX:SharedArchiveFile={JSA}"])
    if out is None:
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print("run.py: the last line of the run is not a result", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
