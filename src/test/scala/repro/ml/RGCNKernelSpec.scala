package repro.ml

import scala.collection.mutable
import scala.util.Random

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.core.GCTSPNet

/** [[RGCN]]'s transform-first kernel against the dense per-relation
  * [[RGCNReference]], on random graphs at the GCTSP-Net head shapes.
  */
class RGCNKernelSpec extends AnyFunSuite {

  private val Tol = 1e-12

  /** Largest absolute difference over the largest reference magnitude. */
  private def relErr(got: Seq[Double], ref: Seq[Double]): Double = {
    val diff = got.zip(ref).map { case (a, b) => math.abs(a - b) }.max
    if (diff == 0) 0.0 else diff / ref.map(math.abs).max
  }

  /** Few edges per relation, so relations are often empty and some nodes get
    * no in-edge; a repeated first pair makes a duplicate edge.
    */
  private def edgesGen(n: Int): Gen[Array[Int]] = Gen.frequency(
    3 -> Gen.const(Array.empty[Int]),
    2 -> (for {
      k <- Gen.choose(1, math.max(1, n / 2))
      pairs <- Gen.listOfN(k, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
      dup <- Gen.prob(0.3)
    } yield (if (dup) pairs :+ pairs.head else pairs).flatMap { case (v, w) => Seq(v, w) }.toArray))

  private def graphGen(cfg: RGCN.Config): Gen[RGCN.EncodedGraph] = for {
    n <- Gen.choose(1, 10)
    feats <- Gen.listOfN(n, Gen.listOfN(cfg.inDim, Gen.choose(-1.0, 1.0)).map(_.toArray))
    rels <- Gen.listOfN(cfg.relations, edgesGen(n))
    labels <- Gen.listOfN(n, Gen.choose(0, cfg.outClasses - 1))
    mask <- Gen.listOfN(n, Gen.prob(0.8))
  } yield RGCN.EncodedGraph(feats.toArray, rels.toArray, labels.toArray, mask.toArray)

  /** Initialized parameters with a random output bias; sometimes a_00 = 0 in every layer. */
  private def paramsGen(cfg: RGCN.Config): Gen[RGCN.Params] = for {
    seed <- Gen.long
    bias <- Gen.listOfN(cfg.outClasses, Gen.choose(-1.0, 1.0))
    zeroA <- Gen.prob(0.3)
  } yield {
    val p = RGCN.init(cfg, seed)
    bias.copyToArray(p.flat, cfg.nParams - cfg.outClasses)
    if (zeroA) {
      var off = 0
      for (l <- 0 until cfg.layers) {
        val (di, dout) = cfg.layerDims(l)
        p.flat(off + (cfg.bases + 1) * di * dout) = 0.0
        off += cfg.layerParams(l)
      }
    }
    p
  }

  private def cases(g: RGCN.EncodedGraph): Seq[String] = {
    val pairs = g.rels.map(_.grouped(2).map(e => (e(0), e(1))).toSeq)
    Seq(
      "empty relation" -> g.rels.exists(_.isEmpty),
      "duplicate edge" -> pairs.exists(ps => ps.distinct.size < ps.size),
      "self-loop" -> pairs.exists(_.exists { case (v, w) => v == w }),
      "node without in-edges" -> (0 until g.n).exists(v => !pairs.exists(_.exists(_._1 == v)))
    ).collect { case (name, true) => name }
  }

  private def matchesReference(cfg: RGCN.Config): Unit = {
    val seen = mutable.Set[String]()
    val prop = Prop.forAll(graphGen(cfg), paramsGen(cfg)) { (g, p) =>
      seen ++= cases(g)
      val (loss, grad) = RGCN.lossAndGrad(g, p)
      val (refLoss, refGrad) = RGCNReference.lossAndGrad(g, p)
      val probs = RGCN.predictProbs(g, p).flatten.toSeq
      val refProbs = RGCNReference.predictProbs(g, p).flatten.toSeq
      val (eLoss, eProbs, eGrad) =
        (relErr(Seq(loss), Seq(refLoss)), relErr(probs, refProbs), relErr(grad.toSeq, refGrad.toSeq))
      (eLoss <= Tol) :| s"loss: $loss vs $refLoss" &&
        (eProbs <= Tol) :| s"probabilities: relative error $eProbs" &&
        (eGrad <= Tol) :| s"gradient: relative error $eGrad"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(150).withInitialSeed(42L), prop)
    assert(res.passed, Pretty.pretty(res))
    assert(seen == Set("empty relation", "duplicate edge", "self-loop", "node without in-edges"),
      "the generator missed a case")
  }

  test("binary head shape: loss, probabilities and gradient match the dense reference") {
    matchesReference(GCTSPNet.config(2))
  }

  test("4-class head shape: loss, probabilities and gradient match the dense reference") {
    matchesReference(GCTSPNet.config(GCTSPNet.ElementClasses))
  }

  test("analytic gradient matches numerical gradient at the 5-layer, 16-relation, 5-basis shape") {
    val cfg = GCTSPNet.config(2)
    assert((cfg.layers, cfg.relations, cfg.bases) == ((5, 16, 5)))
    val rng = new Random(4)
    val n = 9
    val g = RGCN.EncodedGraph(
      Array.fill(n)(Array.fill(cfg.inDim)(rng.nextDouble())),
      Array.tabulate(cfg.relations)(r => if (r % 3 == 2) Array.empty[Int] else Array.fill(2 * n)(rng.nextInt(n))),
      Array.tabulate(n)(_ % 2), Array.fill(n)(true))
    val p = RGCN.init(cfg, 21)
    val (_, grad) = RGCN.lossAndGrad(g, p)
    // four parameters from each block: every layer's [W_0 | V…] and a, then the output layer
    var off = 0
    val blocks = (0 until cfg.layers).flatMap { l =>
      val (di, dout) = cfg.layerDims(l)
      val w = (off, (cfg.bases + 1) * di * dout)
      off += cfg.layerParams(l)
      Seq(w, (w._1 + w._2, cfg.relations * cfg.bases))
    } :+ ((off, cfg.nParams - off))
    val eps = 1e-6
    for ((start, len) <- blocks; i <- Seq.fill(4)(start + rng.nextInt(len))) {
      val orig = p.flat(i)
      p.flat(i) = orig + eps
      val (lp, _) = RGCN.lossAndGrad(g, p)
      p.flat(i) = orig - eps
      val (lm, _) = RGCN.lossAndGrad(g, p)
      p.flat(i) = orig
      val num = (lp - lm) / (2 * eps)
      assert(math.abs(num - grad(i)) <= 1e-9 + 1e-5 * math.abs(num),
        s"param $i: analytic ${grad(i)} vs numerical $num")
    }
  }
}
