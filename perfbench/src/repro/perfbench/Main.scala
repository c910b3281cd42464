package repro.perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** One benchmark run of one workload (see `perfbench/run.py`, which builds
  * the classes and starts this JVM):
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale test|bench|tiny]
  *
  * Set-up starts Spark, generates the inputs [[Workloads.SetupReps]] times
  * and runs one warm-up op with [[Workloads.WarmupEpochs]] epochs. Then ops run back to back (one closed-loop
  * client) as long as the next one, taking as long as the last, ends within
  * `--seconds`; at least one op runs. With `--trace 1` ops alternate
  * between untraced and traced, starting untraced, and at least three run.
  *
  * Stdout gets one line with the environment stamp and per-op details, then
  * the result line:
  *   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        scale: Workloads.Scale)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case a => throw new IllegalArgumentException(s"bad arguments near ${a.mkString(" ")}")
    }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = need("workload")
    val base = Workloads.ByName.getOrElse(workload,
      throw new IllegalArgumentException(s"unknown workload $workload"))
    val scale = kv.get("scale").map(s => Workloads.Named.getOrElse(s,
      throw new IllegalArgumentException(s"unknown scale $s"))).getOrElse(base)
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = need("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Opts(workload, need("seed").toLong, seconds, trace, scale)
  }

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime
    val r = f
    (r, (System.nanoTime - t0) / 1e9)
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    // the session settings of the test suites' SparkSpec.shared
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try run(spark, opts)
    finally spark.stop()
  }

  def run(spark: SparkSession, opts: Opts): Unit = {
    val sparkReadyS = Jvm.uptimeS()
    val gens = (1 to Workloads.SetupReps).map(_ => timed(Inputs.generate(spark, opts.scale, opts.seed)))
    val inputs = gens.last._1
    val genS = Stats.median(gens.map(_._2))
    val (_, warmS) = timed(new BuildOp(spark, inputs,
      math.min(Workloads.WarmupEpochs, opts.scale.epochs), None).run())
    val setupS = sparkReadyS + genS + warmS

    val counters = new SparkCounters
    val ops = mutable.ArrayBuffer[(OpResult, Boolean)]()
    var attempted = 0
    var failed = 0
    val failures = mutable.ArrayBuffer[String]()
    // a traced run brackets its traced op with untraced ones, so that warm-up
    // does not pass for tracing overhead
    def need(traced: Boolean): Boolean =
      opts.trace && ops.count(_._2 == traced) < (if (traced) 1 else 2)
    val t0 = System.nanoTime
    def elapsedS: Double = (System.nanoTime - t0) / 1e9
    var lastOpS = 0.0
    var stop = false
    // start no op that would end past --seconds, going by the last op's time
    while (!stop && (ops.isEmpty || elapsedS + lastOpS <= opts.seconds || need(true) || need(false))) {
      val opStart = elapsedS
      val traced = opts.trace && ops.size % 2 == 1
      if (traced) spark.sparkContext.addSparkListener(counters)
      try {
        val op = new BuildOp(spark, inputs, opts.scale.epochs, Some(counters).filter(_ => traced)).run()
        ops += ((op, traced))
        attempted += op.attempted
        if (op.failures.nonEmpty) { failed += 1; failures ++= op.failures }
      } catch {
        case NonFatal(e) =>
          attempted += 1; failed += 1; stop = true
          failures += s"op ${ops.size} threw ${e.getClass.getName}: ${e.getMessage}"
          e.printStackTrace()
      } finally if (traced) spark.sparkContext.removeSparkListener(counters)
      lastOpS = elapsedS - opStart
    }
    if (ops.isEmpty) throw new IllegalStateException(s"no op completed: ${failures.mkString("; ")}")

    val all = ops.map(_._1)
    val metrics: Seq[(String, String, Double)] =
      if (!opts.trace) {
        val quality = all.head.quality.metrics.map(_._1).map { k =>
          k -> Stats.median(all.map(_.quality.metrics.toMap.apply(k)).toSeq)
        }.toMap
        val values = Map(
          "setup_s" -> setupS,
          "build_s" -> Stats.median(all.map(_.buildS).toSeq),
          "peak_heap_mb" -> all.map(_.liveHeapMb).max) ++ quality
        Workloads.EndToEnd.map { case (k, u) => (k, u, values(k)) }
      } else {
        val traced = ops.collect { case (o, true) => o }.toSeq
        val untraced = ops.collect { case (o, false) => o }.toSeq
        val values = traced.head.layers.keys.map(k => k -> Stats.median(traced.map(_.layers(k)))).toMap ++ Map(
          "trace.overhead" -> Stats.median(traced.map(_.buildS)) / Stats.median(untraced.map(_.buildS)),
          "check.digest_distinct" -> all.map(_.digest).distinct.size.toDouble)
        Workloads.PerLayer.map { case (k, u) => (k, u, values(k)) }
      }

    val first = all.head
    val stamp = Json.obj(
      "workload" -> opts.workload,
      "seed" -> opts.seed,
      "seconds" -> opts.seconds,
      "trace" -> opts.trace,
      "scale" -> Json.obj("concepts" -> opts.scale.nConcepts, "events" -> opts.scale.nEvents,
        "epochs" -> opts.scale.epochs),
      "cores" -> Runtime.getRuntime.availableProcessors,
      "spark_master" -> spark.sparkContext.master,
      "spark_version" -> spark.version,
      "max_heap_mb" -> Jvm.maxHeapMb(),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "source" -> System.getProperty("perfbench.source", "unknown"),
      "sizes" -> Json.obj(first.sizes.map { case (k, v) => k -> (v: Any) }: _*),
      "setup" -> Json.obj("spark_ready_s" -> sparkReadyS, "generate_s" -> genS,
        "generate_runs_s" -> gens.map(_._2), "warmup_s" -> warmS))
    val opsJson = ops.toSeq.map { case (o, traced) =>
      Json.obj("traced" -> traced, "build_s" -> o.buildS, "live_heap_mb" -> o.liveHeapMb, "digest" -> o.digest,
        "stages_s" -> Json.obj(o.stageS.map { case (k, v) => k -> (v: Any) }: _*))
    }
    println(Json.obj("stamp" -> stamp, "ops" -> opsJson, "failures" -> failures.toSeq))
    println(Json.obj(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> Json.obj(metrics.map { case (k, u, v) =>
        k -> (Json.obj("value" -> v, "unit" -> u): Any) }: _*)))
  }
}

/** Minimal JSON writer for the benchmark's output lines. */
object Json {
  final class Obj(val fields: Seq[(String, Any)]) {
    override def toString: String = fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }
      .mkString("{", ", ", "}")
  }

  def obj(fields: (String, Any)*): Obj = new Obj(fields)

  private def str(s: String): String = s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  }.mkString("\"", "", "\"")

  def value(v: Any): String = v match {
    case o: Obj => o.toString
    case s: String => str(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case xs: Seq[_] => xs.map(value).mkString("[", ", ", "]")
    case x => throw new IllegalArgumentException(s"no JSON form for $x")
  }
}
