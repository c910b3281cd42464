package repro.graph

import scala.collection.mutable

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty

import repro.SparkSpec
import repro.data.{ClickLogGen, OntoGen}
import repro.data.ClickLogGen.{ClickRow, DocRow, QueryRow}
import repro.graph.ClickGraph.ClusterRow
import repro.nlp.Lang

/** [[ClickGraph.clusters]]' broadcast per-seed pass against the DataFrame
  * chain of [[ClickGraphReference]]: identical rows, weights bit for bit.
  */
class ClickGraphEquivalenceSpec extends SparkSpec {
  import ClickGraphEquivalenceSpec.Input
  import spark.implicits._

  private val Content = Seq("famous", "runner", "crime", "series", "luxury", "suv")
  private val Stops = Seq("what", "are", "the", "of")

  private val tokensGen: Gen[Seq[String]] = Gen.frequency(
    1 -> Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.oneOf(Stops))),
    3 -> Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.oneOf(Content ++ Stops))))

  /** Ids drawn out of creation order; counts often equal, so visit masses tie;
    * some click rows repeated; some queries without clicks; sometimes one query
    * clicks every doc once, spreading its mass thin.
    */
  private val inputGen: Gen[Input] = for {
    nq <- Gen.choose(1, 10)
    nd <- Gen.choose(1, 8)
    qIds <- Gen.pick(nq, 1L to 30L)
    dIds <- Gen.pick(nd, 100L to 130L)
    queries <- Gen.sequence[List[QueryRow], QueryRow](qIds.map(id => for {
      kind <- Gen.frequency(3 -> "attention", 1 -> "entity")
      toks <- tokensGen
      attn <- Gen.choose(1L, 4L)
      cat <- Gen.oneOf("cars", "music")
    } yield QueryRow(id, toks, kind, attn, cat)))
    titles <- Gen.listOfN(nd, tokensGen)
    nc <- Gen.choose(0, 3 * nq)
    clicks <- Gen.listOfN(nc, for {
      q <- Gen.oneOf(qIds)
      d <- Gen.oneOf(dIds)
      cnt <- Gen.frequency(2 -> Gen.const(1L), 3 -> Gen.choose(1L, 6L))
    } yield ClickRow(q, d, cnt))
    dups <- Gen.someOf(clicks)
    fan <- Gen.option(Gen.oneOf(qIds))
    deltaV <- Gen.oneOf(0.05, 0.2, 0.4)
    rounds <- Gen.choose(1, 3)
    maxMembers <- Gen.oneOf(2, 12)
  } yield Input(queries, dIds.zip(titles).map { case (id, t) => DocRow(id, t, Seq.empty, "cars", 1L, 0) }.toSeq,
    clicks ++ dups ++ fan.toSeq.flatMap(q => dIds.map(ClickRow(q, _, 1L))), deltaV, rounds, maxMembers)

  /** Rows with every weight as its IEEE-754 bits. */
  private def bits(rows: Seq[ClusterRow]) = rows.map { r =>
    (r.seed, r.gold_attn, r.category, r.docIds,
      r.queries.map(t => (t.tokens, java.lang.Double.doubleToRawLongBits(t.w))),
      r.titles.map(t => (t.tokens, java.lang.Double.doubleToRawLongBits(t.w))))
  }

  /** (ours, reference), both sorted by seed. */
  private def both(in: Input): (Seq[ClusterRow], Seq[ClusterRow]) = {
    val (q, d, c) = (in.queries.toDF(), in.docs.toDF(), in.clicks.toDF())
    (ClickGraph.clusters(spark, q, d, c, in.deltaV, in.rounds, in.maxMembers),
      ClickGraphReference.clusters(spark, q, d, c, in.deltaV, in.rounds, in.maxMembers)
        .collect().sortBy(_.seed).toSeq)
  }

  private def cases(in: Input): Seq[String] = {
    val pairs = in.clicks.map(c => (c.query_id, c.doc_id))
    val clicked = pairs.map(_._1).toSet
    val adj = ClickGraph.adjacency(in.clicks.toDF())
    val walks = in.queries.filter(q => q.kind == "attention" && clicked(q.query_id))
      .map(q => ClickGraph.walk(adj, q.query_id, in.rounds))
    def tie(visits: Seq[(Long, Double)]) = {
      val ws = visits.map(_._2).filter(_ >= in.deltaV)
      ws.distinct.size < ws.size
    }
    Seq(
      "duplicate (query, doc) rows" -> (pairs.distinct.size < pairs.size),
      "query without clicks" -> in.queries.exists(q => !clicked(q.query_id)),
      "stop-word-only query" -> in.queries.exists(_.tokens.forall(Lang.isStop)),
      "seed with every doc under delta_v" -> walks.exists(w => w.docs.nonEmpty && w.docs.forall(_._2 < in.deltaV)),
      "exact tie in visit mass" -> walks.exists(w => tie(w.queries) || tie(w.docs))
    ).collect { case (name, true) => name }
  }

  test("random click logs: clusters equal the DataFrame reference, weights bit for bit") {
    val seen = mutable.Set[String]()
    val prop = Prop.forAll(inputGen) { in =>
      seen ++= cases(in)
      val (got, ref) = both(in)
      (bits(got) == bits(ref)) :| s"ours $got\nreference $ref"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(42L), prop)
    assert(res.passed, Pretty.pretty(res))
    assert(seen == Set("duplicate (query, doc) rows", "query without clicks", "stop-word-only query",
      "seed with every doc under delta_v", "exact tie in visit mass"), "the generator missed a case")
  }

  private def generated(onto: OntoGen.Params, log: ClickLogGen.Params): Input = {
    val l = ClickLogGen.generate(spark, OntoGen.generate(onto), log)
    Input(l.queryRows, l.docRows, l.clickRows, 0.05, 2, 12)
  }

  test("ClickGraphSpec's generated log: clusters equal the DataFrame reference, weights bit for bit") {
    val (got, ref) = both(generated(OntoGen.Params(nDerivedConcepts = 25, nEvents = 15, seed = 4),
      ClickLogGen.Params(seed = 5)))
    assert(got.nonEmpty)
    assert(bits(got) == bits(ref))
  }

  test("DatasetsSpec's generated log: clusters equal the DataFrame reference, weights bit for bit") {
    val (got, ref) = both(generated(OntoGen.Params(nDerivedConcepts = 40, nEvents = 25, seed = 6),
      ClickLogGen.Params(seed = 7)))
    assert(got.nonEmpty)
    assert(bits(got) == bits(ref))
  }
}

object ClickGraphEquivalenceSpec {

  /** A click log plus the clustering parameters to run it with. */
  final case class Input(queries: Seq[QueryRow], docs: Seq[DocRow], clicks: Seq[ClickRow],
                         deltaV: Double, rounds: Int, maxMembers: Int)
}
