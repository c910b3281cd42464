package repro.perfbench

import repro.eval.Tables

/** The benchmark's workloads and the metrics each run prints. Names and
  * units here must match `BENCHMARK.json` (checked by `perfbench/tests`).
  */
object Workloads {

  /** Generator size (derived concepts, events) and R-GCN training epochs. */
  final case class Scale(nConcepts: Int, nEvents: Int, epochs: Int)

  /** build-small: 60 clusters, about 260 docs and 200 entities. Fixed Spark
    * per-job cost and R-GCN training dominate; the single-threaded scans are
    * small.
    * build-large: TestScale's data (240 clusters, about 1,050 docs and 800
    * entities). The single-threaded scans of `assemble` and doc tagging grow
    * faster than the data.
    * Both train 20 epochs: with 10, involve-edge accuracy falls below the
    * 0.85 band on some seeds; with TestScale's 40, one build-large op would
    * not fit a run.
    */
  val ByName: Map[String, Scale] = Map(
    "build-small" -> Scale(40, 20, 20),
    "build-large" -> Scale(160, 80, 20))

  /** Epochs of the warm-up op, which runs on the workload's own inputs. */
  val WarmupEpochs = 2

  /** Smallest scale that still mines concepts and events: smoke runs. */
  val Tiny = Scale(20, 10, 3)

  /** `--scale` overrides: the scales of `repro.eval.Tables`, and a tiny one
    * for smoke runs.
    */
  val Named: Map[String, Scale] = Map(
    "test" -> fromTables(Tables.TestScale),
    "bench" -> fromTables(Tables.BenchScale),
    "tiny" -> Tiny)

  private def fromTables(s: Tables.Scale): Scale = Scale(s.nConcepts, s.nEvents, s.epochs)

  /** Times the inputs are generated during set-up; the median counts. */
  val SetupReps = 3

  /** End-to-end metric → unit, printed with `--trace 0`. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "build_s" -> "s",
    "peak_heap_mb" -> "MB",
    "concept_phrase_acc" -> "frac",
    "event_phrase_acc" -> "frac",
    "isA_acc" -> "frac",
    "involve_acc" -> "frac",
    "correlate_acc" -> "frac",
    "doc_concept_precision" -> "frac",
    "doc_event_precision" -> "frac")

  private def span(prefix: String, keys: String*): Seq[(String, String)] = keys.map { k =>
    s"$prefix.$k" -> (k match {
      case "s" | "task_s" | "gc_s" => "s"
      case "busy_share" => "frac"
      case "shuffle_bytes" | "result_bytes" => "bytes"
      case _ => "count"
    })
  }

  /** Per-layer metric → unit, printed with `--trace 1`. */
  val PerLayer: Seq[(String, String)] =
    span("graph.clusters", "s", "spark_jobs", "spark_tasks", "task_s", "shuffle_bytes", "busy_share") ++
    Seq("graph.qtig.calls" -> "count", "graph.qtig.s" -> "s", "graph.qtig.nodes_mean" -> "count") ++
    span("ml.train", "s", "spark_jobs", "spark_tasks", "task_s", "busy_share", "result_bytes", "gc_s") ++
    Seq("ml.train.graph_epochs_per_s" -> "1/s",
      "ml.train.final_loss.concept" -> "nats",
      "ml.train.final_loss.event" -> "nats",
      "ml.train.final_loss.element" -> "nats",
      "ml.forward.ms_per_graph" -> "ms",
      "ml.loss_grad.ms_per_graph" -> "ms",
      "ml.adam.ms_per_step" -> "ms",
      "tsp.decode.calls" -> "count",
      "tsp.decode.s" -> "s",
      "tsp.exact_share" -> "frac",
      "core.mine.s" -> "s",
      "core.mine.empty_share" -> "frac") ++
    span("core.assemble", "s", "spark_jobs", "task_s") ++
    BuildOp.NodeKinds.map(k => s"core.assemble.nodes.$k" -> "count") ++
    BuildOp.EdgeHows.map(h => s"core.assemble.edges.$h" -> "count") ++
    Seq("core.normalize.s" -> "s",
      "core.normalize.merge_ratio" -> "frac",
      "apps.tag.s" -> "s",
      "apps.tag.docs_per_s" -> "1/s",
      "apps.tag.concept_coverage" -> "frac",
      "apps.tag.event_coverage" -> "frac",
      "apps.tag.p50_ms" -> "ms",
      "apps.tag.p99_ms" -> "ms",
      "apps.tag.samples" -> "count",
      "apps.key_entities.ms_per_doc" -> "ms",
      "apps.tag_concepts.ms_per_doc" -> "ms",
      "apps.tag_events.ms_per_doc" -> "ms",
      "spark.jobs" -> "count",
      "spark.tasks" -> "count",
      "spark.task_s" -> "s",
      "spark.shuffle_bytes" -> "bytes",
      "spark.gc_s" -> "s",
      "jvm.gc_s" -> "s",
      "trace.overhead" -> "ratio",
      "check.digest_distinct" -> "count")
}
