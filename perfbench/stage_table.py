#!/usr/bin/env python3
"""Regenerate perfbench/stage_table.json: wall seconds per pipeline stage.

    python3 perfbench/stage_table.py            # seed 42, about 15 minutes

One run at each build scale, all with seed 42:
  - build-small and build-large, traced (--trace 1), at their own scales;
  - build-large at --scale test (repro.eval.Tables.TestScale) and
    --scale bench (Tables.BenchScale), untraced, which also gives the
    quality numbers that EXPERIMENTS.md reports at bench scale.
Stage times come from each run's first (untraced) op; "generate" is the
median input generation of the set-up. The table is printed as Markdown and
written, with each run's sizes, quality and per-layer metrics, to
perfbench/stage_table.json.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 42
RUNS = [  # column, workload, --scale, --trace
    ("build-small", "build-small", None, "1"),
    ("build-large", "build-large", None, "1"),
    ("TestScale", "build-large", "test", "0"),
    ("BenchScale", "build-large", "bench", "0"),
]
STAGES = ["generate", "Datasets.build", "trainModels", "minePhrases", "assemble",
          "judge", "DocTaggingEval.run"]
# EXPERIMENTS.md, bench scale, seed 42 (Table 2 accuracies, Sec. 5.3 precision)
EXPERIMENTS = {"isA_acc": 0.975, "involve_acc": 0.998, "correlate_acc": 1.000,
               "doc_concept_precision": 0.890, "doc_event_precision": 0.975}


def run(workload, scale, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", trace, "--timeout", "1800"]
    if scale:
        cmd += ["--scale", scale]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit(f"{' '.join(cmd)} exited with {p.returncode}")
    stamp, result = (json.loads(line) for line in p.stdout.strip().split("\n")[-2:])
    return stamp, result


def main():
    columns = []
    for name, workload, scale, trace in RUNS:
        stamp, result = run(workload, scale, trace)
        op = stamp["ops"][0]
        stages = {"generate": stamp["stamp"]["setup"]["generate_s"], **op["stages_s"]}
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        col = {"column": name, "workload": workload, "scale": stamp["stamp"]["scale"],
               "trace": trace == "1", "sizes": stamp["stamp"]["sizes"],
               "correct": result["correct"], "stages_s": stages, "metrics": metrics}
        if name == "BenchScale":
            col["matches_experiments"] = all(
                round(metrics[k], 3) == v for k, v in EXPERIMENTS.items())
        columns.append(col)
        print(f"{name}: done", file=sys.stderr)

    head = "| stage | " + " | ".join(
        f"{c['column']} ({c['scale']['concepts']}/{c['scale']['events']}, "
        f"{c['scale']['epochs']} ep)" for c in columns) + " |"
    lines = [head, "|---" + "|---:" * len(columns) + "|"]
    for s in STAGES:
        lines.append(f"| `{s}` | " + " | ".join(f"{c['stages_s'][s]:.2f}" for c in columns) + " |")
    table = "\n".join(lines)
    print(table)
    out = {"seed": SEED, "note": "wall seconds per stage from one run per column; "
           "judge = Tables.judgeEdges + phraseAccuracy",
           "table_markdown": table, "columns": columns}
    with open(os.path.join(HERE, "stage_table.json"), "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
