package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.GiantPipeline
import repro.eval.Tables

/** Shared spark-submit plumbing for the per-table jobs.
  *
  * Usage: spark-submit --class repro.jobs.Table5ConceptMining <jar> [--bench]
  * The `--bench` flag switches from test scale to bench scale.
  */
object JobUtil {
  def session(name: String): SparkSession =
    SparkSession.builder.appName(name)
      // spark-submit provides spark.master via system properties; fall back
      // to local[*] so the jobs also run under `sbt runMain`
      .master(sys.props.getOrElse("spark.master",
        sys.env.getOrElse("SPARK_MASTER", "local[*]")))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def scaleOf(args: Array[String]): Tables.Scale =
    if (args.contains("--bench")) Tables.BenchScale else Tables.TestScale

  /** Runs the pipeline at the scale `args` select and prints `lines` of its result. */
  def runAndPrint(name: String, args: Array[String])(lines: GiantPipeline.Result => Seq[String]): Unit = {
    val spark = session(name)
    try lines(Tables.prepare(spark, scaleOf(args))).foreach(println)
    finally spark.stop()
  }
}

/** Table 1: node counts of the attention ontology. */
object Table1Nodes {
  def main(args: Array[String]): Unit =
    JobUtil.runAndPrint("giant-table1", args)(res => Tables.table1Lines(Tables.tables1and2(res)))
}

/** Table 2: edge counts + accuracy. */
object Table2Edges {
  def main(args: Array[String]): Unit =
    JobUtil.runAndPrint("giant-table2", args)(res => Tables.table2Lines(Tables.tables1and2(res)))
}

/** Tables 3 and 4: showcases of concepts and events/topics. */
object Table3And4Showcases {
  def main(args: Array[String]): Unit =
    JobUtil.runAndPrint("giant-table3-4", args) { res =>
      Tables.table3Lines(Tables.table3(res, k = 6)) ++ Tables.table4Lines(Tables.table4(res, k = 6))
    }
}

/** Table 5: concept mining comparison on CMD. */
object Table5ConceptMining {
  def main(args: Array[String]): Unit =
    JobUtil.runAndPrint("giant-table5", args)(res => Tables.table5Lines(Tables.table5(res)))
}

/** Table 6: event mining comparison on EMD. */
object Table6EventMining {
  def main(args: Array[String]): Unit =
    JobUtil.runAndPrint("giant-table6", args)(res => Tables.table6Lines(Tables.table6(res)))
}

/** Table 7: event key elements recognition. */
object Table7KeyElements {
  def main(args: Array[String]): Unit =
    JobUtil.runAndPrint("giant-table7", args)(res => Tables.table7Lines(Tables.table7(res)))
}
