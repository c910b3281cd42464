package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.sum
import scala.collection.mutable
import repro.nlp.Lang

/** Bipartite search-click-graph machinery (Sec. 3.1, Eq. 1–2 + Algorithm 1
  * lines 1–4): transport probabilities, per-seed random walk and cluster
  * assembly.
  *
  * One Spark aggregation sums the clicks per (query, doc); Eq. 1–2 turn the
  * sums into transport probabilities, packed as a CSR [[Adjacency]] in both
  * directions. [[clusters]] broadcasts the adjacency and the query and doc
  * texts once, then runs one `mapPartitions` job over the attention seeds:
  * each seed walks on its own ([[walk]]) and assembles its own cluster. Each
  * node's incoming mass is summed in ascending source-id order and the rows
  * come back sorted by seed, so the output depends only on the input, not on
  * core count or partitioning.
  */
object ClickGraph {

  /** A weighted text (query or title) inside a cluster. */
  final case class WText(tokens: Seq[String], w: Double)

  /** One query-doc cluster: the unit the miner consumes. `gold_attn` is the
    * generator's gold attention id of the seed query (evaluation only — the
    * pipeline never reads it).
    */
  final case class ClusterRow(seed: Long, gold_attn: Long, category: String,
                              queries: Seq[WText], titles: Seq[WText],
                              docIds: Seq[Long])

  /** The click graph with the transport probabilities of Eq. (1) and (2), in
    * CSR form both ways. Queries and docs are indexed in ascending id order;
    * row i of `qOff`/`qDoc`/`pDq` lists query i's docs with P(d|q), row j of
    * `dOff`/`dQuery`/`pQd` lists doc j's queries with P(q|d), both by
    * ascending target index.
    */
  final class Adjacency private[ClickGraph] (
      val queryIds: Array[Long], val docIds: Array[Long],
      qOff: Array[Int], qDoc: Array[Int], pDq: Array[Double],
      dOff: Array[Int], dQuery: Array[Int], pQd: Array[Double]) extends Serializable {

    /** Eq. (1) as (query_id, doc_id, P(d|q)) rows. */
    def pDocGivenQuery: Seq[(Long, Long, Double)] =
      for (q <- queryIds.indices; e <- qOff(q) until qOff(q + 1))
        yield (queryIds(q), docIds(qDoc(e)), pDq(e))

    /** Eq. (2) as (query_id, doc_id, P(q|d)) rows. */
    def pQueryGivenDoc: Seq[(Long, Long, Double)] =
      for (d <- docIds.indices; e <- dOff(d) until dOff(d + 1))
        yield (queryIds(dQuery(e)), docIds(d), pQd(e))

    private[ClickGraph] def queryIndex(id: Long): Int = java.util.Arrays.binarySearch(queryIds, id)

    /** Half a round: each target's mass is Σ mass(src)·P(target|src), added in
      * ascending source order; targets under `prune` are dropped.
      *
      * @param mass (source index, mass), ascending source index
      * @return (target index, mass), ascending target index
      */
    private def spread(mass: Seq[(Int, Double)], off: Array[Int], dst: Array[Int],
                       p: Array[Double], prune: Double): Seq[(Int, Double)] = {
      val acc = mutable.HashMap[Int, Double]()
      for ((src, m) <- mass; e <- off(src) until off(src + 1))
        acc(dst(e)) = acc.getOrElse(dst(e), 0.0) + m * p(e)
      acc.toVector.filter(_._2 >= prune).sortBy(_._1)
    }

    private[ClickGraph] def queryToDoc(mass: Seq[(Int, Double)], prune: Double) =
      spread(mass, qOff, qDoc, pDq, prune)

    private[ClickGraph] def docToQuery(mass: Seq[(Int, Double)], prune: Double) =
      spread(mass, dOff, dQuery, pQd, prune)
  }

  /** Visit mass of one seed's walk, by ascending node id. */
  final case class Visits(queries: Seq[(Long, Double)], docs: Seq[(Long, Double)])

  /** Sum `clicks` (query_id, doc_id, cnt) per (query, doc) in one Spark
    * aggregation and pack the transport probabilities.
    */
  def adjacency(clicks: DataFrame): Adjacency = {
    val counts = clicks.groupBy("query_id", "doc_id").agg(sum("cnt") as "cnt")
      .collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2)))
    val queryIds = counts.map(_._1).distinct.sorted
    val docIds = counts.map(_._2).distinct.sorted
    val byQuery = counts.map { case (q, d, c) =>
      (java.util.Arrays.binarySearch(queryIds, q), java.util.Arrays.binarySearch(docIds, d), c)
    }
    val (qOff, qDoc, pDq) = transport(queryIds.length, byQuery)
    val (dOff, dQuery, pQd) = transport(docIds.length, byQuery.map { case (q, d, c) => (d, q, c) })
    new Adjacency(queryIds, docIds, qOff, qDoc, pDq, dOff, dQuery, pQd)
  }

  /** Eq. (1) and (2): P(dst|src) = cnt(src, dst) / Σ_dst' cnt(src, dst'),
    * over exact `Long` totals, as CSR rows.
    *
    * @param edges (src index, dst index, cnt), one per (src, dst)
    */
  private def transport(n: Int, edges: Array[(Int, Int, Long)]): (Array[Int], Array[Int], Array[Double]) = {
    val total = new Array[Long](n)
    edges.foreach { case (s, _, c) => total(s) += c }
    val sorted = edges.sortBy(e => (e._1, e._2))
    val off = new Array[Int](n + 1)
    sorted.foreach(e => off(e._1 + 1) += 1)
    for (i <- 0 until n) off(i + 1) += off(i)
    (off, sorted.map(_._2), sorted.map { case (s, _, c) => c.toDouble / total(s).toDouble })
  }

  /** Random walk from one seed query.
    *
    * Each round is q→d→q through the transport probabilities, starting from
    * mass 1.0 at the seed; visit mass is the max over rounds per node (the
    * seed itself keeps its 1.0). Per-round pruning of mass < `prune` keeps
    * the frontier sparse (an optimization — the paper thresholds only at the
    * end with δ_v). A seed without clicks visits only itself.
    */
  def walk(g: Adjacency, seed: Long, rounds: Int = 2, prune: Double = 0.01): Visits = {
    val s = g.queryIndex(seed)
    if (s < 0) Visits(Seq(seed -> 1.0), Seq.empty)
    else {
      val qBest = mutable.HashMap(s -> 1.0)
      val dBest = mutable.HashMap[Int, Double]()
      def keepMax(best: mutable.HashMap[Int, Double], visits: Seq[(Int, Double)]): Unit =
        for ((i, m) <- visits) best(i) = math.max(best.getOrElse(i, m), m)
      var frontier: Seq[(Int, Double)] = Seq(s -> 1.0)
      for (_ <- 0 until rounds) {
        val dv = g.queryToDoc(frontier, prune)
        keepMax(dBest, dv)
        frontier = g.docToQuery(dv, prune)
        keepMax(qBest, frontier)
      }
      Visits(qBest.toVector.sortBy(_._1).map { case (i, m) => g.queryIds(i) -> m },
        dBest.toVector.sortBy(_._1).map { case (i, m) => g.docIds(i) -> m })
    }
  }

  /** Fraction of non-stop tokens must exceed 1/2 (Algorithm 1 keep rule). */
  val mostlyContent: Seq[String] => Boolean = { toks =>
    toks.nonEmpty && Lang.contentTokens(toks).size * 2 > toks.size
  }

  /** An attention seed query with its gold labels. */
  private final case class Seed(id: Long, goldAttn: Long, category: String)

  /** What every seed task reads: the adjacency, the tokens of the queries
    * that pass [[mostlyContent]], and the doc titles.
    */
  private final case class Shared(adj: Adjacency, memberTokens: Map[Long, Seq[String]],
                                  titles: Map[Long, Seq[String]])

  /** Assemble query-doc clusters from the random walk (Algorithm 1 lines 2–8).
    *
    * Queries/titles are ordered by descending visit weight (ties by ascending
    * id) and cut at `maxMembers`; members below δ_v are dropped; queries that
    * are mostly stop words are dropped. A seed left without a query or a doc
    * yields no row. Rows are sorted by seed.
    */
  def clusters(spark: SparkSession, queries: DataFrame, docs: DataFrame,
               clicks: DataFrame, deltaV: Double = 0.05, rounds: Int = 2,
               maxMembers: Int = 12): Seq[ClusterRow] = {
    val adj = adjacency(clicks)
    val qRows = queries.select("query_id", "tokens", "kind", "gold_attn", "category").collect()
    val seeds = qRows.filter(_.getString(2) == "attention")
      .map(r => Seed(r.getLong(0), r.getLong(3), r.getString(4)))
    val memberTokens = qRows.map(r => r.getLong(0) -> r.getSeq[String](1))
      .filter { case (_, t) => mostlyContent(t) }.toMap
    val titles = docs.select("doc_id", "title").collect()
      .map(r => r.getLong(0) -> r.getSeq[String](1)).toMap
    if (seeds.isEmpty) Seq.empty
    else {
      val sc = spark.sparkContext
      val bc = sc.broadcast(Shared(adj, memberTokens, titles))
      try sc.parallelize(seeds.toSeq, math.min(seeds.length, sc.defaultParallelism))
        .mapPartitions { it =>
          val sh = bc.value
          it.flatMap(s => cluster(sh, s, deltaV, rounds, maxMembers))
        }
        .collect().sortBy(_.seed).toSeq
      finally bc.destroy()
    }
  }

  /** One seed's cluster: walk, drop members under δ_v or without text, rank
    * by (weight desc, id asc), keep the top `maxMembers` of each side.
    */
  private def cluster(sh: Shared, seed: Seed, deltaV: Double, rounds: Int,
                      maxMembers: Int): Option[ClusterRow] = {
    val v = walk(sh.adj, seed.id, rounds)
    def ranked(visits: Seq[(Long, Double)], text: Map[Long, Seq[String]]) =
      visits.filter(_._2 >= deltaV)
        .flatMap { case (id, w) => text.get(id).map(t => (id, WText(t, w))) }
        .sortWith { case ((i, a), (j, b)) => a.w > b.w || (a.w == b.w && i < j) }
        .take(maxMembers)
    val qs = ranked(v.queries, sh.memberTokens)
    val ds = ranked(v.docs, sh.titles)
    if (qs.isEmpty || ds.isEmpty) None
    else Some(ClusterRow(seed.id, seed.goldAttn, seed.category,
      qs.map(_._2), ds.map(_._2), ds.map(_._1).sorted))
  }
}
