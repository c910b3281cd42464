package repro.ml

import breeze.linalg.{DenseMatrix, DenseVector, sum => bsum}

/** Dense per-relation R-GCN, the oracle for [[RGCN]]'s kernel.
  *
  * Aggregates first, then transforms: for every relation r it forms
  * M_r = Â_r H and adds Σ_b a_rb (M_r V_b), one small GEMM per (relation,
  * basis) pair; the backward pass mirrors it term by term. Same math and flat
  * parameter layout as [[RGCN]], written the obvious way.
  */
object RGCNReference {

  private final case class LayerView(w0: DenseMatrix[Double], vb: Array[DenseMatrix[Double]],
                                     a: DenseMatrix[Double])
  private final case class ParamsView(layers: Array[LayerView], outW: DenseMatrix[Double],
                                      outB: DenseVector[Double])

  /** Breeze views into a flat vector laid out as [[RGCN.Config]] describes. */
  private def view(cfg: RGCN.Config, flat: Array[Double]): ParamsView = {
    var off = 0
    def take(rows: Int, cols: Int): DenseMatrix[Double] = {
      val m = new DenseMatrix(rows, cols, flat, off); off += rows * cols; m
    }
    val layers = (0 until cfg.layers).map { l =>
      val (di, dout) = cfg.layerDims(l)
      val w0 = take(di, dout)
      val vb = Array.fill(cfg.bases)(take(di, dout))
      val a = take(cfg.relations, cfg.bases)
      LayerView(w0, vb, a)
    }.toArray
    val outW = take(cfg.hidden, cfg.outClasses)
    ParamsView(layers, outW, new DenseVector(flat, off, 1, cfg.outClasses))
  }

  /** Â_r H: aggregate neighbor rows with 1/c_v normalization (c_v = |N_r(v)|). */
  private def relAggregate(h: DenseMatrix[Double], edges: Array[Int], n: Int): DenseMatrix[Double] = {
    val out = DenseMatrix.zeros[Double](n, h.cols)
    val deg = new Array[Int](n)
    var i = 0
    while (i < edges.length) { deg(edges(i)) += 1; i += 2 }
    i = 0
    while (i < edges.length) {
      val v = edges(i); val w = edges(i + 1)
      val c = 1.0 / deg(v)
      var j = 0
      while (j < h.cols) { out(v, j) += h(w, j) * c; j += 1 }
      i += 2
    }
    out
  }

  /** Transposed propagation: out(w,:) += in(v,:)/c_v for each edge (v,w). */
  private def relAggregateT(g: DenseMatrix[Double], edges: Array[Int], n: Int): DenseMatrix[Double] = {
    val out = DenseMatrix.zeros[Double](n, g.cols)
    val deg = new Array[Int](n)
    var i = 0
    while (i < edges.length) { deg(edges(i)) += 1; i += 2 }
    i = 0
    while (i < edges.length) {
      val v = edges(i); val w = edges(i + 1)
      val c = 1.0 / deg(v)
      var j = 0
      while (j < g.cols) { out(w, j) += g(v, j) * c; j += 1 }
      i += 2
    }
    out
  }

  private def relu(m: DenseMatrix[Double]): DenseMatrix[Double] = m.map(x => if (x > 0) x else 0.0)

  /** Forward pass; returns per-layer inputs, pre-activations and final logits. */
  private def forward(g: RGCN.EncodedGraph, pv: ParamsView, cfg: RGCN.Config)
    : (Array[DenseMatrix[Double]], Array[DenseMatrix[Double]], DenseMatrix[Double]) = {
    val n = g.n
    var h = new DenseMatrix(cfg.inDim, n, g.feats.flatten).t.copy // n × inDim
    val inputs = new Array[DenseMatrix[Double]](cfg.layers)
    val preacts = new Array[DenseMatrix[Double]](cfg.layers)
    for (l <- 0 until cfg.layers) {
      val lv = pv.layers(l)
      inputs(l) = h
      val z = h * lv.w0
      for (r <- 0 until cfg.relations if g.rels(r).nonEmpty) {
        val m = relAggregate(h, g.rels(r), n)
        for (b <- 0 until cfg.bases) z += (m * lv.vb(b)) * lv.a(r, b)
      }
      preacts(l) = z
      h = relu(z)
    }
    val logits = h * pv.outW
    for (i <- 0 until n; j <- 0 until cfg.outClasses) logits(i, j) += pv.outB(j)
    (inputs, preacts, logits)
  }

  def predictProbs(g: RGCN.EncodedGraph, params: RGCN.Params): Array[Array[Double]] = {
    val cfg = params.cfg
    val (_, _, logits) = forward(g, view(cfg, params.flat), cfg)
    Array.tabulate(g.n) { i =>
      val row = (0 until cfg.outClasses).map(logits(i, _))
      val m = row.max
      val ex = row.map(x => math.exp(x - m))
      val s = ex.sum
      ex.map(_ / s).toArray
    }
  }

  def lossAndGrad(g: RGCN.EncodedGraph, params: RGCN.Params): (Double, Array[Double]) = {
    val cfg = params.cfg
    val pv = view(cfg, params.flat)
    val gradFlat = new Array[Double](cfg.nParams)
    val gp = view(cfg, gradFlat)

    val (inputs, preacts, logits) = forward(g, pv, cfg)
    val n = g.n
    val nMasked = math.max(1, g.mask.count(identity))

    var loss = 0.0
    val dLogits = DenseMatrix.zeros[Double](n, cfg.outClasses)
    for (i <- 0 until n if g.mask(i)) {
      val row = (0 until cfg.outClasses).map(logits(i, _))
      val m = row.max
      val ex = row.map(x => math.exp(x - m))
      val s = ex.sum
      val y = g.labels(i)
      loss += -(row(y) - m - math.log(s)) / nMasked
      for (j <- 0 until cfg.outClasses)
        dLogits(i, j) = (ex(j) / s - (if (j == y) 1.0 else 0.0)) / nMasked
    }

    val hLast = relu(preacts(cfg.layers - 1))
    gp.outW += hLast.t * dLogits
    for (j <- 0 until cfg.outClasses) gp.outB(j) += bsum(dLogits(::, j))
    var dH = dLogits * pv.outW.t

    for (l <- (cfg.layers - 1) to 0 by -1) {
      val lv = pv.layers(l); val gl = gp.layers(l)
      val z = preacts(l)
      val dZ = DenseMatrix.tabulate(n, z.cols)((i, j) => if (z(i, j) > 0) dH(i, j) else 0.0)
      val hIn = inputs(l)
      gl.w0 += hIn.t * dZ
      val dHin = dZ * lv.w0.t
      for (r <- 0 until cfg.relations if g.rels(r).nonEmpty) {
        val m = relAggregate(hIn, g.rels(r), n)
        val gr = m.t * dZ // d(M_r W_r)/dW_r
        val wrT = DenseMatrix.zeros[Double](lv.w0.cols, lv.w0.rows)
        for (b <- 0 until cfg.bases) {
          gl.vb(b) += gr * lv.a(r, b)
          gl.a(r, b) += bsum(gr *:* lv.vb(b))
          wrT += lv.vb(b).t * lv.a(r, b)
        }
        dHin += relAggregateT(dZ * wrT, g.rels(r), n)
      }
      dH = dHin
    }
    (loss, gradFlat)
  }
}
