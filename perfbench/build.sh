#!/usr/bin/env bash
# Build file of the benchmark: compiles the program (src/main/scala) together
# with the benchmark harness (perfbench/src) into <out>/perfbench.jar with
# scalac, the Scala 2.13 compiler that ships in Spark's jars directory. No sbt
# and no network: the only classpath is $SPARK_HOME/jars.
#
#   bash perfbench/build.sh [out-dir]      (default: .bench_build)
#
# A content hash of every source file is kept next to the classes, so a
# second call with unchanged sources does nothing. Exits non-zero when the
# program sources or Spark are missing.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$root/.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

if [[ -z "${SPARK_HOME:-}" ]]; then
  submit="$(command -v spark-submit || true)"
  [[ -n "$submit" ]] || { echo "build: SPARK_HOME unset and spark-submit not on PATH" >&2; exit 2; }
  SPARK_HOME="$(cd "$(dirname "$(readlink -f "$submit")")/.." && pwd)"
fi
jars="$SPARK_HOME/jars"
ls "$jars"/scala-compiler-*.jar >/dev/null 2>&1 || { echo "build: no scala-compiler jar in $jars" >&2; exit 2; }
[[ -d "$root/src/main/scala" ]] || { echo "build: program sources src/main/scala not found" >&2; exit 2; }

mapfile -t sources < <(find "$root/src/main/scala" "$root/perfbench/src" -name '*.scala' | LC_ALL=C sort)
stamp="$(cat "${sources[@]}" | sha256sum | cut -d' ' -f1)"
if [[ -f "$out/classes.stamp" && "$(cat "$out/classes.stamp")" == "$stamp" ]]; then
  exit 0
fi

# perfbench.jsa is a class-data archive of the previous build's jar
rm -rf "$out/classes" "$out/classes.stamp" "$out/perfbench.jar" "$out/perfbench.jsa"
mkdir -p "$out/classes"
# -XX:-UsePerfData: no hsperfdata file in the system temp directory
java -XX:-UsePerfData -Xss16m -Xmx2g -cp "$jars/*" scala.tools.nsc.Main \
  -usejavacp -nowarn -d "$out/classes" "${sources[@]}"
cp "$root/perfbench/log4j2.properties" "$out/classes/"
jar -J-XX:-UsePerfData cf "$out/perfbench.jar" -C "$out/classes" .
echo "$jars" > "$out/classpath.spark"
echo "$stamp" > "$out/classes.stamp"
