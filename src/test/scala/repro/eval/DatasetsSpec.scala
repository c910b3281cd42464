package repro.eval

import repro.SparkSpec
import repro.data.{ClickLogGen, OntoGen}

class DatasetsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val onto = OntoGen.generate(OntoGen.Params(nDerivedConcepts = 40, nEvents = 25, seed = 6))
  private lazy val log = ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = 7))
  private lazy val corpus = Datasets.build(spark, onto, log)

  test("one CMD example per derived concept") {
    assert(corpus.cmd.size == onto.derivedConcepts.size)
    assert(corpus.cmd.map(_.attnId).distinct.size == corpus.cmd.size)
  }

  test("one EMD example per event") {
    assert(corpus.emd.size == onto.events.size)
  }

  test("gold phrases come from the generator") {
    for (ex <- corpus.cmd) assert(onto.conceptById(ex.attnId).tokens == ex.gold)
    for (ex <- corpus.emd) assert(onto.eventById(ex.attnId).tokens == ex.gold)
  }

  test("gold tokens all appear in the cluster texts (phrase is extractable)") {
    val bad = corpus.cmd.filterNot { ex =>
      val all = (ex.queries.map(_.tokens) ++ ex.titles.map(_.tokens)).flatten.toSet
      ex.gold.forall(all)
    }
    assert(bad.size <= corpus.cmd.size / 10, s"${bad.size} concept examples missing gold tokens")
  }

  test("split is deterministic and roughly 80/10/10") {
    val all = corpus.cmd ++ corpus.emd
    val bySplit = all.groupBy(_.split).view.mapValues(_.size).toMap
    assert(bySplit.keySet.subsetOf(Set("train", "dev", "test")))
    assert(bySplit("train").toDouble / all.size > 0.6)
    assert(bySplit.getOrElse("test", 0) > 0)
    for (ex <- all) assert(Datasets.splitOf(ex.attnId) == ex.split)
  }

  test("event examples carry gold elements") {
    for (ex <- corpus.emd) {
      assert(ex.goldEntity.nonEmpty && ex.goldTrigger.nonEmpty)
      assert(ex.gold.containsSlice(ex.goldEntity))
      assert(ex.gold.containsSlice(ex.goldTrigger))
      ex.goldLocation.foreach(l => assert(ex.gold.contains(l)))
    }
  }

  test("queries and titles are weight-ordered, top query overlaps gold for nearly all") {
    val all = corpus.cmd ++ corpus.emd
    for (ex <- all) {
      assert(ex.queries.nonEmpty && ex.titles.nonEmpty)
      assert(ex.queries.map(_.w).sliding(2).forall { case Seq(a, b) => a >= b; case _ => true })
    }
    val overlapping = all.count(ex =>
      ex.queries.head.tokens.toSet.intersect(ex.gold.toSet).nonEmpty)
    assert(overlapping.toDouble / all.size > 0.9,
      s"only $overlapping/${all.size} top queries overlap their gold phrase")
  }

  // Degenerate logs: the build returns a smaller or empty corpus, no exception.
  private def withClicks(clicks: Vector[ClickLogGen.ClickRow]) =
    log.copy(clicks = clicks.toDF(), clickRows = clicks)
  private def withQueries(queries: Vector[ClickLogGen.QueryRow]) =
    log.copy(queries = queries.toDF(), queryRows = queries)
  private def size(c: Datasets.Corpus) = c.cmd.size + c.emd.size

  test("an empty click log builds an empty corpus") {
    val c = Datasets.build(spark, onto, withClicks(Vector.empty))
    assert(c.cmd.isEmpty && c.emd.isEmpty)
  }

  test("a log without attention queries builds an empty corpus") {
    val c = Datasets.build(spark, onto, withQueries(log.queryRows.map(_.copy(kind = "entity"))))
    assert(c.cmd.isEmpty && c.emd.isEmpty)
  }

  test("an attention whose seed queries have no clicks drops out of the corpus") {
    val attn = corpus.cmd.head.attnId
    val silent = log.queryRows.filter(q => q.kind == "attention" && q.gold_attn == attn).map(_.query_id).toSet
    val c = Datasets.build(spark, onto, withClicks(log.clickRows.filterNot(r => silent(r.query_id))))
    assert(!c.cmd.exists(_.attnId == attn))
    assert(size(c) < size(corpus))
  }

  test("an attention whose queries are all stop words drops out of the corpus") {
    val attn = corpus.emd.head.attnId
    val c = Datasets.build(spark, onto, withQueries(log.queryRows.map(q =>
      if (q.kind == "attention" && q.gold_attn == attn) q.copy(tokens = Seq("what", "are", "the")) else q)))
    assert(!c.emd.exists(_.attnId == attn))
    assert(size(c) < size(corpus))
  }
}
