package repro.perfbench

import repro.core.{Linking, Ontology}

/** Checks of the benchmark's own helpers, run by `perfbench/tests`:
  *
  *   SelfTest          run the checks; exit non-zero on the first failure
  *   SelfTest names    print the metric names and units as JSON
  */
object SelfTest {

  private def check(cond: Boolean, what: String): Unit =
    if (!cond) throw new AssertionError(what)

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) < 1e-12

  def main(args: Array[String]): Unit = args.toSeq match {
    case Seq("names") =>
      def pairs(xs: Seq[(String, String)]) = xs.map { case (n, u) => Seq(n, u) }
      println(Json.obj("end_to_end" -> pairs(Workloads.EndToEnd),
        "per_layer" -> pairs(Workloads.PerLayer)))
    case Seq() =>
      percentiles(); names(); digests(); bands(); json()
      println("selftest ok")
    case other => throw new IllegalArgumentException(s"unknown arguments $other")
  }

  private def percentiles(): Unit = {
    val xs = (1 to 100).map(_.toDouble)
    check(close(Stats.percentile(xs, 0), 1) && close(Stats.percentile(xs, 100), 100), "percentile ends")
    check(close(Stats.median(xs), 50.5), "median of an even sample is the mean of the middle two")
    check(close(Stats.percentile(xs, 99), 99.01), "p99 interpolates between ranks 99 and 100")
    check(close(Stats.median(Seq(3.0, 1.0, 2.0)), 2), "median sorts its input")
    check(close(Stats.percentile(Seq(7.0), 99), 7), "a single sample is every percentile")
    check(scala.util.Try(Stats.percentile(Seq.empty, 50)).isFailure, "empty sample is refused")
  }

  private def names(): Unit = {
    for (n <- Seq("build_s", "ml.train.final_loss.concept", "core.assemble.edges.entity-entity", "1x"))
      check(Stats.validName(n), s"$n should be a valid name")
    for (n <- Seq("", ".s", "a b", "a/b", "x" * 65, "é"))
      check(!Stats.validName(n), s"'$n' should be refused")
    val all = (Workloads.EndToEnd ++ Workloads.PerLayer).map(_._1)
    all.foreach(n => check(Stats.validName(n), s"metric name $n is invalid"))
    check(all.distinct.size == all.size, "metric names repeat")
  }

  private def digests(): Unit = {
    def built(edges: Seq[Linking.Edge]) = Ontology.Built(
      Seq(Ontology.Node(1, "entity", Seq("a")), Ontology.Node(2, "concept", Seq("b", "c"))),
      edges, Seq.empty, Seq.empty, Seq.empty, Map.empty)
    val e1 = Linking.Edge(1, 2, "isA", "entity-concept")
    val e2 = Linking.Edge(2, 1, "correlate", "entity-entity")
    check(Stats.digest(built(Seq(e1, e2))) == Stats.digest(built(Seq(e2, e1))),
      "digest ignores edge order")
    check(Stats.digest(built(Seq(e1))) != Stats.digest(built(Seq(e1, e2))),
      "digest sees a missing edge")
  }

  private def bands(): Unit = {
    val good = Quality(0.9, 0.9, Map("isA" -> 0.9, "involve" -> 0.99, "correlate" -> 1.0),
      0.8, 0.9, Map("entity" -> 10L, "concept" -> 5L, "event" -> 4L, "topic" -> 1L))
    check(good.violations.isEmpty, s"in-band build flagged: ${good.violations}")
    check(good.metrics.map(_._1) == Workloads.EndToEnd.map(_._1)
      .filter(n => n.contains("_acc") || n.startsWith("doc_")),
      "quality metrics are the end-to-end quality names")
    val cases = Seq(
      good.copy(edgeAcc = good.edgeAcc.updated("isA", 0.85)) -> "isA accuracy",
      good.copy(edgeAcc = good.edgeAcc - "involve") -> "no involve edges",
      good.copy(docEventPrecision = 0.7) -> "doc event precision",
      good.copy(nodeCounts = good.nodeCounts.updated("concept", 10L)) -> "entity nodes",
      good.copy(nodeCounts = good.nodeCounts.updated("topic", 4L)) -> "event nodes")
    for ((q, reason) <- cases)
      check(q.violations.exists(_.startsWith(reason)), s"expected '$reason' in ${q.violations}")
  }

  private def json(): Unit = {
    val s = Json.obj("a" -> "q\"\\\n", "b" -> Seq[Any](1, 2L, 0.5), "c" -> true).toString
    val bs = "\\"
    check(s == "{\"a\": \"q" + bs + "\"" + bs + bs + bs + "u000a\", \"b\": [1, 2, 0.5], \"c\": true}",
      s"JSON writer gave $s")
    check(scala.util.Try(Json.value(Double.NaN)).isFailure, "NaN is refused")
  }
}
