package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{ClickLogGen, OntoGen}
import repro.data.ClickLogGen.{ClickRow, DocRow, QueryRow}

class ClickGraphSpec extends SparkSpec {
  import spark.implicits._

  private lazy val clicks = Seq(
    (1L, 10L, 4L), (1L, 11L, 6L), (2L, 10L, 2L), (2L, 12L, 2L), (3L, 12L, 5L)
  ).toDF("query_id", "doc_id", "cnt")

  test("transport probabilities P(d|q) match DuckDB (Eq. 1)") {
    val pDq = ClickGraph.adjacency(clicks).pDocGivenQuery.toDF("query_id", "doc_id", "p")
    Oracle.assertEquivalent(
      pDq.select($"query_id", $"doc_id", round($"p", 6) as "p"),
      """SELECT CAST(query_id AS BIGINT) AS query_id, CAST(doc_id AS BIGINT) AS doc_id,
        |       ROUND(SUM(CAST(cnt AS BIGINT)) * 1.0
        |             / SUM(SUM(CAST(cnt AS BIGINT))) OVER (PARTITION BY query_id), 6) AS p
        |FROM clicks GROUP BY query_id, doc_id""".stripMargin,
      "clicks" -> clicks)
  }

  test("transport probabilities P(q|d) match DuckDB (Eq. 2)") {
    val pQd = ClickGraph.adjacency(clicks).pQueryGivenDoc.toDF("query_id", "doc_id", "p")
    Oracle.assertEquivalent(
      pQd.select($"query_id", $"doc_id", round($"p", 6) as "p"),
      """SELECT CAST(query_id AS BIGINT) AS query_id, CAST(doc_id AS BIGINT) AS doc_id,
        |       ROUND(SUM(CAST(cnt AS BIGINT)) * 1.0
        |             / SUM(SUM(CAST(cnt AS BIGINT))) OVER (PARTITION BY doc_id), 6) AS p
        |FROM clicks GROUP BY query_id, doc_id""".stripMargin,
      "clicks" -> clicks)
  }

  test("P(d|q) sums to 1 per query") {
    val pDq = ClickGraph.adjacency(clicks).pDocGivenQuery.toDF("query_id", "doc_id", "p")
    val sums = pDq.groupBy("query_id").agg(sum("p") as "s").collect()
    sums.foreach(r => assert(math.abs(r.getDouble(1) - 1.0) < 1e-9))
  }

  test("random walk from a seed stays in its connected component") {
    val v = ClickGraph.walk(ClickGraph.adjacency(clicks), 1L)
    val qs = v.queries.map(_._1).toSet
    val ds = v.docs.map(_._1).toSet
    // query 3 shares doc 12 with query 2, which shares doc 10 with query 1
    assert(qs.contains(1L) && qs.contains(2L))
    assert(ds.contains(10L) && ds.contains(11L))
  }

  test("random walk visit mass decreases with distance") {
    val m = ClickGraph.walk(ClickGraph.adjacency(clicks), 1L).queries.toMap
    assert(m(1L) > m(2L))
  }

  test("mostlyContent filter") {
    assert(ClickGraph.mostlyContent(Seq("famous", "runner")))
    assert(ClickGraph.mostlyContent(Seq("the", "famous", "runner")))
    assert(!ClickGraph.mostlyContent(Seq("what", "are", "the", "runner")))
    assert(!ClickGraph.mostlyContent(Seq.empty))
  }

  test("clusters group each attention's queries and docs together") {
    val onto = OntoGen.generate(OntoGen.Params(nDerivedConcepts = 25, nEvents = 15, seed = 4))
    val log = ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = 5))
    val rows = ClickGraph.clusters(spark, log.queries, log.docs, log.clicks)
    assert(rows.nonEmpty)
    val dAttn = log.docRows.map(d => d.doc_id -> d.gold_attn).toMap
    // purity: most docs in a cluster belong to the seed's attention
    val purities = rows.map { c =>
      if (c.docIds.isEmpty) 1.0
      else c.docIds.count(d => dAttn(d) == c.gold_attn).toDouble / c.docIds.size
    }
    assert(purities.sum / purities.length > 0.8,
      f"mean cluster purity ${purities.sum / purities.length}%.3f too low")
    // every cluster has at least one query and doc, sorted by weight
    rows.foreach { c =>
      assert(c.queries.nonEmpty && c.titles.nonEmpty)
      assert(c.queries.map(_.w).sliding(2).forall { case Seq(a, b) => a >= b; case _ => true })
    }
  }

  test("cluster count equals number of content-bearing attention seed queries") {
    val onto = OntoGen.generate(OntoGen.Params(nDerivedConcepts = 25, nEvents = 15, seed = 4))
    val log = ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = 5))
    val rows = ClickGraph.clusters(spark, log.queries, log.docs, log.clicks)
    // every attention query seeds a cluster (Algorithm 1 walks from each q);
    // the content filter applies to cluster *members*, not seeds
    val seeds = log.queryRows.count(_.kind == "attention")
    assert(rows.length <= seeds)
    assert(rows.length > seeds / 2)
  }

  /** Two rounds of q→d→q with a per-round prune at 0.01, max over rounds. */
  private val walkSql =
    """WITH agg AS (
      |  SELECT CAST(query_id AS BIGINT) AS q, CAST(doc_id AS BIGINT) AS d, SUM(CAST(cnt AS BIGINT)) AS cnt
      |  FROM clicks GROUP BY 1, 2),
      |pdq AS (SELECT q, d, CAST(cnt AS DOUBLE) / SUM(cnt) OVER (PARTITION BY q) AS p FROM agg),
      |pqd AS (SELECT q, d, CAST(cnt AS DOUBLE) / SUM(cnt) OVER (PARTITION BY d) AS p FROM agg),
      |q0 AS (SELECT CAST(query_id AS BIGINT) AS seed, CAST(query_id AS BIGINT) AS q,
      |              CAST(1.0 AS DOUBLE) AS p FROM seeds),
      |d1 AS (SELECT seed, d, SUM(q0.p * pdq.p) AS p FROM q0 JOIN pdq USING (q)
      |       GROUP BY seed, d HAVING SUM(q0.p * pdq.p) >= 0.01),
      |q1 AS (SELECT seed, q, SUM(d1.p * pqd.p) AS p FROM d1 JOIN pqd USING (d)
      |       GROUP BY seed, q HAVING SUM(d1.p * pqd.p) >= 0.01),
      |d2 AS (SELECT seed, d, SUM(q1.p * pdq.p) AS p FROM q1 JOIN pdq USING (q)
      |       GROUP BY seed, d HAVING SUM(q1.p * pdq.p) >= 0.01),
      |q2 AS (SELECT seed, q, SUM(d2.p * pqd.p) AS p FROM d2 JOIN pqd USING (d)
      |       GROUP BY seed, q HAVING SUM(d2.p * pqd.p) >= 0.01)
      |SELECT seed, 'query' AS kind, q AS node, ROUND(MAX(p), 6) AS p
      |FROM (SELECT * FROM q0 UNION ALL SELECT * FROM q1 UNION ALL SELECT * FROM q2) GROUP BY seed, q
      |UNION ALL
      |SELECT seed, 'doc' AS kind, d AS node, ROUND(MAX(p), 6) AS p
      |FROM (SELECT * FROM d1 UNION ALL SELECT * FROM d2) GROUP BY seed, d""".stripMargin

  private def walkMatchesDuckDb(clicks: DataFrame, seeds: Seq[Long]): Unit = {
    val adj = ClickGraph.adjacency(clicks)
    val visits = seeds.flatMap { s =>
      val v = ClickGraph.walk(adj, s)
      v.queries.map { case (q, p) => (s, "query", q, p) } ++ v.docs.map { case (d, p) => (s, "doc", d, p) }
    }
    Oracle.assertEquivalent(
      visits.toDF("seed", "kind", "node", "p").select($"seed", $"kind", $"node", round($"p", 6) as "p"),
      walkSql, "clicks" -> clicks, "seeds" -> seeds.toDF("query_id"))
  }

  test("random-walk visit mass matches DuckDB (fixture, with a seed without clicks)") {
    walkMatchesDuckDb(clicks, Seq(1L, 2L, 3L, 9L))
  }

  test("random-walk visit mass matches DuckDB (generated log, every attention seed)") {
    val onto = OntoGen.generate(OntoGen.Params(nDerivedConcepts = 25, nEvents = 15, seed = 4))
    val log = ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = 5))
    walkMatchesDuckDb(log.clicks, log.queryRows.filter(_.kind == "attention").map(_.query_id))
  }

  // Degenerate inputs: seed 1 clusters; seed 2's only member query is stop
  // words; seed 3 has no clicks; query 4 is an entity query.
  private lazy val tinyQueries = Seq(
    QueryRow(1L, Seq("famous", "runner"), "attention", 7L, "sports"),
    QueryRow(2L, Seq("what", "are", "the"), "attention", 8L, "sports"),
    QueryRow(3L, Seq("crime", "series"), "attention", 9L, "film"),
    QueryRow(4L, Seq("famous", "runner", "zorvex"), "entity", 5L, "sports"))
  private lazy val tinyDocs = Seq(10L, 11L, 12L).map(d => DocRow(d, Seq("famous", "runner"), Seq.empty, "sports", 7L, 0))
  private lazy val tinyClicks = Seq(ClickRow(1L, 10L, 5L), ClickRow(1L, 11L, 3L), ClickRow(2L, 12L, 4L),
    ClickRow(4L, 10L, 2L))

  private def tinyClusters(queries: Seq[QueryRow], clicks: Seq[ClickRow]) =
    ClickGraph.clusters(spark, queries.toDF(), tinyDocs.toDF(), clicks.toDF())

  test("clusters: an empty click log yields no row") {
    assert(tinyClusters(tinyQueries, Seq.empty).isEmpty)
  }

  test("clusters: a log without attention queries yields no row") {
    assert(tinyClusters(tinyQueries.map(_.copy(kind = "entity")), tinyClicks).isEmpty)
  }

  test("clusters: an attention seed without clicks yields no row") {
    val rows = tinyClusters(tinyQueries, tinyClicks)
    assert(!rows.exists(_.seed == 3L))
    assert(rows.map(_.seed) == Seq(1L))
  }

  test("clusters: a seed whose member queries are all stop words yields no row") {
    val rows = tinyClusters(tinyQueries, tinyClicks)
    assert(!rows.exists(_.seed == 2L))
    assert(rows.head.queries.map(_.tokens) == Seq(Seq("famous", "runner"), Seq("famous", "runner", "zorvex")))
  }
}
