package repro.ml

import repro.SparkSpec

class RGCNTrainerSpec extends SparkSpec {

  private def graph(seed: Int): RGCN.EncodedGraph = {
    val rng = new scala.util.Random(seed)
    val n = 6
    val feats = Array.fill(n)(Array.fill(4)(rng.nextDouble()))
    val r0 = (0 until n - 1).flatMap(i => Seq(i + 1, i)).toArray
    val labels = Array.tabulate(n)(i => i % 2)
    RGCN.EncodedGraph(feats, Array(r0), labels, Array.fill(n)(true))
  }

  private val cfg = RGCN.Config(inDim = 4, hidden = 5, layers = 2, relations = 1,
    bases = 2, outClasses = 2)

  test("distributed training equals local training (same full-batch gradient)") {
    val graphs = (1 to 8).map(graph)
    val tc = RGCNTrainer.TrainConfig(epochs = 5, seed = 3)
    val local = RGCNTrainer.trainLocal(graphs, cfg, tc)
    val dist = RGCNTrainer.trainHeads(spark, Seq(graphs -> cfg), tc).head
    val maxDiff = local.flat.zip(dist.flat).map { case (a, b) => math.abs(a - b) }.max
    assert(maxDiff < 1e-9, s"parameter divergence $maxDiff")
  }

  test("training reduces the aggregate loss") {
    val graphs = (1 to 6).map(graph)
    val tc = RGCNTrainer.TrainConfig(epochs = 60, seed = 5)
    val p0 = RGCN.init(cfg, 5)
    val before = graphs.map(g => RGCN.lossAndGrad(g, p0)._1).sum
    val p = RGCNTrainer.trainLocal(graphs, cfg, tc)
    val after = graphs.map(g => RGCN.lossAndGrad(g, p)._1).sum
    assert(after < before * 0.8, s"$before -> $after")
  }

  test("Adam step actually moves every parameter with nonzero gradient") {
    val g = graph(1)
    val tc = RGCNTrainer.TrainConfig(epochs = 1, seed = 9)
    val p0 = RGCN.init(cfg, 9).flat.clone()
    val p = RGCNTrainer.trainLocal(Seq(g), cfg, tc)
    val moved = p.flat.zip(p0).count { case (a, b) => a != b }
    assert(moved > p0.length / 2)
  }

  test("empty graph set is rejected") {
    intercept[IllegalArgumentException] {
      RGCNTrainer.trainHeads(spark, Seq(Seq.empty[RGCN.EncodedGraph] -> cfg), RGCNTrainer.TrainConfig()).head
    }
  }

  test("an empty head is rejected by its index") {
    val e = intercept[IllegalArgumentException] {
      RGCNTrainer.trainHeads(spark, Seq((1 to 3).map(graph) -> cfg, Seq.empty -> cfg),
        RGCNTrainer.TrainConfig(epochs = 1))
    }
    assert(e.getMessage.contains("head 1"), e.getMessage)
  }

  test("trainHeads: each head is bit-identical to the head trained alone, and runs repeat") {
    def bits(p: RGCN.Params): Seq[Long] = p.flat.toSeq.map(java.lang.Double.doubleToRawLongBits)
    val cfg4 = cfg.copy(outClasses = 4)
    val heads = Seq(
      (1 to 13).map(graph) -> cfg,
      (20 to 22).map(graph) -> cfg, // fewer graphs than slices
      (30 to 40).map(graph).map(g => g.copy(labels = g.labels.indices.map(_ % 4).toArray)) -> cfg4)
    val tc = RGCNTrainer.TrainConfig(epochs = 4, seed = 7)
    val together = RGCNTrainer.trainHeads(spark, heads, tc)
    val again = RGCNTrainer.trainHeads(spark, heads, tc)
    for (((gs, c), h) <- heads.zipWithIndex) {
      assert(bits(together(h)) == bits(RGCNTrainer.trainHeads(spark, Seq(gs -> c), tc).head), s"head $h alone")
      assert(bits(together(h)) == bits(RGCNTrainer.trainLocal(gs, c, tc)), s"head $h local")
      assert(bits(together(h)) == bits(again(h)), s"head $h rerun")
    }
  }
}
