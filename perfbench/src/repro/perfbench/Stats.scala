package repro.perfbench

import java.security.MessageDigest

import repro.core.Ontology

/** Small numeric and naming helpers of the benchmark. */
object Stats {

  /** Metric names the benchmark may print: `[A-Za-z0-9_.-]+`, starting with
    * a letter or digit, at most 64 characters.
    */
  private val NamePattern = "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}".r

  def validName(name: String): Boolean = NamePattern.matches(name)

  /** Percentile `p` in [0, 100] of `xs` by linear interpolation between
    * closest ranks (NumPy's default), so p50 of an even-sized sample is the
    * mean of the two middle values.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p >= 0 && p <= 100, s"percentile $p outside [0, 100]")
    val s = xs.sorted.toIndexedSeq
    val pos = p / 100.0 * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** SHA-256 (first 16 hex digits) of the sorted node and edge lists, so two
    * builds can be compared for identical output.
    */
  def digest(built: Ontology.Built): String = {
    val nodes = built.nodes.map(n => s"${n.id}|${n.kind}|${n.phrase.mkString(" ")}").sorted
    val edges = built.edges.map(e => s"${e.src}|${e.dst}|${e.kind}|${e.how}").sorted
    val md = MessageDigest.getInstance("SHA-256")
    (nodes ++ Seq("--") ++ edges).foreach(l => md.update((l + "\n").getBytes("UTF-8")))
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}
