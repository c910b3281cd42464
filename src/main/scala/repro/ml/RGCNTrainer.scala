package repro.ml

import org.apache.spark.sql.SparkSession

/** Synchronous full-batch training for [[RGCN]] heads — the Spark-native
  * analogue of the paper's GPU training loop.
  *
  * [[trainHeads]] broadcasts the encoded graphs once, then runs one Spark job
  * per epoch for all heads together. Each head's graphs are cut into
  * `Slices` contiguous index ranges; task s sums every head's slice s in
  * index order, and the driver adds the slice sums in slice order and applies
  * one Adam step per head. The summation order is fixed, so the trained
  * parameters depend on neither core count nor task completion order, and a
  * head trains to the same bits alone or beside others. [[trainLocal]] runs
  * the same epoch loop with the slices summed on the driver.
  */
object RGCNTrainer {

  final case class TrainConfig(epochs: Int = 120, lr: Double = 0.01,
                               beta1: Double = 0.9, beta2: Double = 0.999,
                               eps: Double = 1e-8, weightDecay: Double = 1e-5,
                               seed: Long = 13)

  /** Adam state over a flat parameter vector. */
  final class Adam(n: Int, tc: TrainConfig) {
    private val m = new Array[Double](n)
    private val v = new Array[Double](n)
    private var t = 0
    def step(params: Array[Double], grad: Array[Double]): Unit = {
      t += 1
      val bc1 = 1 - math.pow(tc.beta1, t)
      val bc2 = 1 - math.pow(tc.beta2, t)
      var i = 0
      while (i < n) {
        val g = grad(i) + tc.weightDecay * params(i)
        m(i) = tc.beta1 * m(i) + (1 - tc.beta1) * g
        v(i) = tc.beta2 * v(i) + (1 - tc.beta2) * g * g
        params(i) -= tc.lr * (m(i) / bc1) / (math.sqrt(v(i) / bc2) + tc.eps)
        i += 1
      }
    }
  }

  /** Slices per head, and tasks per epoch. A constant, not a setting: the
    * slicing fixes the order in which gradients are summed.
    */
  private val Slices = 8

  /** Train one head per (graphs, config) pair, in one Spark job per epoch. */
  def trainHeads(spark: SparkSession, heads: Seq[(Seq[RGCN.EncodedGraph], RGCN.Config)],
                 tc: TrainConfig): Seq[RGCN.Params] = {
    val graphs = checked(heads)
    val cfgs = heads.map(_._2).toArray
    val sc = spark.sparkContext
    val bcGraphs = sc.broadcast(graphs)
    try fit(graphs, cfgs, tc) { flats =>
      val bcFlats = sc.broadcast(flats)
      try sc.parallelize(0 until Slices, Slices)
        .map(s => sliceGrads(bcGraphs.value, cfgs, bcFlats.value, s)).collect()
      finally bcFlats.destroy()
    } finally bcGraphs.destroy()
  }

  /** Driver-local training of one head; bit-identical to the same head
    * trained by [[trainHeads]].
    */
  def trainLocal(graphs: Seq[RGCN.EncodedGraph], cfg: RGCN.Config,
                 tc: TrainConfig = TrainConfig()): RGCN.Params = {
    val gs = checked(Seq(graphs -> cfg))
    val cfgs = Array(cfg)
    fit(gs, cfgs, tc)(flats => Array.tabulate(Slices)(s => sliceGrads(gs, cfgs, flats, s))).head
  }

  private def checked(heads: Seq[(Seq[RGCN.EncodedGraph], RGCN.Config)]): Array[Array[RGCN.EncodedGraph]] = {
    for (((graphs, _), h) <- heads.zipWithIndex)
      require(graphs.nonEmpty, s"head $h: no training graphs")
    heads.map(_._1.toArray).toArray
  }

  /** The epoch loop. `sliceSums` maps the heads' current parameters to the
    * gradient sums of every slice, indexed [slice][head].
    */
  private def fit(graphs: Array[Array[RGCN.EncodedGraph]], cfgs: Array[RGCN.Config], tc: TrainConfig)
                 (sliceSums: Array[Array[Double]] => Array[Array[Array[Double]]]): Seq[RGCN.Params] = {
    val params = cfgs.map(RGCN.init(_, tc.seed))
    val adams = cfgs.map(c => new Adam(c.nParams, tc))
    for (_ <- 1 to tc.epochs) {
      val parts = sliceSums(params.map(_.flat))
      for (h <- params.indices) {
        val grad = parts.map(_(h)).reduceLeft(addInto)
        val nG = graphs(h).length.toDouble
        var i = 0
        while (i < grad.length) { grad(i) /= nG; i += 1 }
        adams(h).step(params(h).flat, grad)
      }
    }
    params.toSeq
  }

  /** Per head, the gradient sum over graphs [s·n/Slices, (s+1)·n/Slices) in index order. */
  private def sliceGrads(graphs: Array[Array[RGCN.EncodedGraph]], cfgs: Array[RGCN.Config],
                         flats: Array[Array[Double]], s: Int): Array[Array[Double]] =
    Array.tabulate(graphs.length) { h =>
      val p = new RGCN.Params(cfgs(h), flats(h))
      val grad = new Array[Double](p.cfg.nParams)
      val n = graphs(h).length
      for (i <- s * n / Slices until (s + 1) * n / Slices) RGCN.addLossGrad(graphs(h)(i), p, grad)
      grad
    }

  private def addInto(acc: Array[Double], x: Array[Double]): Array[Double] = {
    var i = 0
    while (i < acc.length) { acc(i) += x(i); i += 1 }
    acc
  }
}
