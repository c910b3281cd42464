package repro.graph

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.graph.ClickGraph.ClusterRow

/** The click-graph stage as a chain of DataFrame joins, windows and
  * `collect_list`s: the oracle [[ClickGraph]]'s broadcast per-seed pass is
  * checked against.
  */
object ClickGraphReference {

  /** Transport probabilities of Eq. (1) and (2).
    *
    * @return (pDocGivenQuery(query_id, doc_id, p), pQueryGivenDoc(query_id, doc_id, p))
    */
  def transportProbs(clicks: DataFrame): (DataFrame, DataFrame) = {
    val byQ = Window.partitionBy("query_id")
    val byD = Window.partitionBy("doc_id")
    val agg = clicks.groupBy("query_id", "doc_id").agg(sum("cnt") as "cnt")
    val pDq = agg.select(col("query_id"), col("doc_id"),
      (col("cnt") / sum("cnt").over(byQ)) as "p")
    val pQd = agg.select(col("query_id"), col("doc_id"),
      (col("cnt") / sum("cnt").over(byD)) as "p")
    (pDq, pQd)
  }

  /** Random walk from every seed query: `rounds` q→d→q rounds, mass < `prune`
    * dropped per round, visit mass = max over rounds per (seed, node).
    *
    * @return (queryVisits(seed, query_id, p), docVisits(seed, doc_id, p))
    */
  def randomWalk(clicks: DataFrame, seeds: DataFrame, rounds: Int = 2,
                 prune: Double = 0.01): (DataFrame, DataFrame) = {
    val (pDq0, pQd0) = transportProbs(clicks)
    val pDq = pDq0.withColumnRenamed("p", "pdq")
    val pQd = pQd0.withColumnRenamed("p", "pqd")
    var qv = seeds.select(col("query_id") as "seed", col("query_id"), lit(1.0) as "p")
    var dvAcc: DataFrame = null
    var qvAcc = qv
    for (_ <- 0 until rounds) {
      val dv = qv.join(pDq, "query_id")
        .groupBy(col("seed"), col("doc_id"))
        .agg(sum(col("p") * col("pdq")) as "p")
        .where(col("p") >= prune)
      dvAcc = if (dvAcc == null) dv else dvAcc.unionByName(dv)
      qv = dv.join(pQd, "doc_id")
        .groupBy(col("seed"), col("query_id"))
        .agg(sum(col("p") * col("pqd")) as "p")
        .where(col("p") >= prune)
      qvAcc = qvAcc.unionByName(qv)
    }
    val qVisits = qvAcc.groupBy("seed", "query_id").agg(max("p") as "p")
    val dVisits = dvAcc.groupBy("seed", "doc_id").agg(max("p") as "p")
    (qVisits, dVisits)
  }

  /** Query-doc clusters from the random walk (Algorithm 1 lines 2–8), ranked
    * with windows and assembled with `collect_list`.
    */
  def clusters(spark: SparkSession, queries: DataFrame, docs: DataFrame,
               clicks: DataFrame, deltaV: Double = 0.05, rounds: Int = 2,
               maxMembers: Int = 12): Dataset[ClusterRow] = {
    import spark.implicits._
    val seeds = queries.where(col("kind") === "attention").select("query_id")
    val (qvAll, dvAll) = randomWalk(clicks, seeds, rounds)

    val qRank = Window.partitionBy("seed").orderBy(col("p").desc, col(("query_id")))
    val dRank = Window.partitionBy("seed").orderBy(col("p").desc, col(("doc_id")))
    val contentUdf = udf(ClickGraph.mostlyContent)

    val qv = qvAll.where(col("p") >= deltaV)
      .join(queries.select(col("query_id"), col("tokens")), "query_id")
      .where(contentUdf(col("tokens")))
      .withColumn("rk", row_number().over(qRank)).where(col("rk") <= maxMembers)
    val dv = dvAll.where(col("p") >= deltaV)
      .join(docs.select(col("doc_id"), col("title")), "doc_id")
      .withColumn("rk", row_number().over(dRank)).where(col("rk") <= maxMembers)

    val qAgg = qv.groupBy("seed").agg(
      sort_array(collect_list(struct(col("rk"), struct(col("tokens"), col("p") as "w") as "t"))) as "qs")
    val dAgg = dv.groupBy("seed").agg(
      sort_array(collect_list(struct(col("rk"), struct(col("title") as "tokens", col("p") as "w") as "t"))) as "ds",
      sort_array(collect_list(col("doc_id"))) as "docIds")

    qAgg.join(dAgg, "seed")
      .join(queries.select(col("query_id") as "seed", col("gold_attn"), col("category")), "seed")
      .select(col("seed"), col("gold_attn"), col("category"),
        col("qs.t") as "queries", col("ds.t") as "titles", col("docIds"))
      .as[ClusterRow]
  }
}
