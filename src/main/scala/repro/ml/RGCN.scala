package repro.ml

import dev.ludovic.netlib.blas.BLAS
import scala.util.Random

/** Relational Graph Convolutional Network (Schlichtkrull et al.) implemented
  * from scratch on BLAS — the offline stand-in for the paper's PyTorch-based
  * GCTSP-Net encoder (Sec. 3.1, Eq. 3–6).
  *
  * Layer rule (Eq. 5): h_v' = ReLU( W_0 h_v + Σ_r Σ_{w∈N_r(v)} 1/c_{v,r} W_r h_w )
  * with basis decomposition (Eq. 6): W_r = Σ_b a_{rb} V_b and c_{v,r} = |N_r(v)|.
  *
  * Each layer transforms first, then aggregates. Its `[W_0 | V_0 … V_{B-1}]`
  * lies contiguously in the flat parameter vector, so one GEMM gives
  * `Y = H·[W_0 | V_0 … V_{B-1}]`, and one pass over the edges adds
  * `1/c_{v,r} Σ_b a_{rb} Y_b[w]` to `Y_0[v]`. The backward pass runs the same
  * edge loop transposed into `dY`, then `∂[W_0 | V…] = Hᵀ·dY` and
  * `dH = dY·[W_0 | V…]ᵀ` are again one GEMM each. Per layer that is
  * (B+1)·n·d_in·d_out multiply-adds for the transform plus B·|E|·d_out for
  * the edges; aggregating first would take one small GEMM per (relation,
  * basis) pair.
  *
  * Node classification head is a softmax over `outClasses` (binary phrase
  * membership uses 2 classes; event key elements use 4). Gradients are exact
  * (checked against a dense per-relation reference and numerically in tests)
  * and flat, so a trainer can sum them across graphs.
  */
object RGCN {

  /** A graph encoded for the network.
    *
    * @param feats  node features, n × inDim (row per node)
    * @param rels   per relation id, flat edge pairs [v0, w0, v1, w1, …] where
    *               node v receives a message from node w
    * @param labels per-node class id
    * @param mask   nodes included in the loss
    */
  final case class EncodedGraph(feats: Array[Array[Double]], rels: Array[Array[Int]],
                                labels: Array[Int], mask: Array[Boolean]) extends Serializable {
    def n: Int = feats.length
  }

  /** Network shape. The flat parameter vector holds, per layer l, the
    * column-major d_in × d_out matrices W_0, V_0 … V_{B-1} back to back
    * (together one d_in × (B+1)·d_out matrix) followed by the relations × B
    * coefficients a; then the hidden × outClasses output weights and the
    * output bias.
    */
  final case class Config(inDim: Int, hidden: Int, layers: Int, relations: Int,
                          bases: Int, outClasses: Int) extends Serializable {
    /** Dims (in, out) of layer l. */
    def layerDims(l: Int): (Int, Int) = (if (l == 0) inDim else hidden, hidden)
    /** Number of parameters of layer l. */
    def layerParams(l: Int): Int = {
      val (di, dout) = layerDims(l)
      (bases + 1) * di * dout /*W0, V_b*/ + relations * bases /*a*/
    }
    /** Total number of parameters in the flat vector. */
    def nParams: Int =
      (0 until layers).map(layerParams).sum + hidden * outClasses + outClasses
  }

  /** Model parameters as one flat vector (layout: see [[Config]]). */
  final class Params(val cfg: Config, val flat: Array[Double]) extends Serializable {
    require(flat.length == cfg.nParams, s"expected ${cfg.nParams} params, got ${flat.length}")
  }

  /** Glorot-style initialization, deterministic in `seed`. */
  def init(cfg: Config, seed: Long): Params = {
    val rng = new Random(seed)
    val flat = new Array[Double](cfg.nParams)
    var off = 0
    def fill(rows: Int, cols: Int, scale: Double): Unit = {
      val s = if (scale > 0) scale else math.sqrt(6.0 / (rows + cols))
      for (i <- 0 until rows * cols) { flat(off) = (rng.nextDouble() * 2 - 1) * s; off += 1 }
    }
    for (l <- 0 until cfg.layers) {
      val (di, dout) = cfg.layerDims(l)
      fill(di, dout, -1)
      for (_ <- 0 until cfg.bases) fill(di, dout, -1)
      fill(cfg.relations, cfg.bases, 0.5)
    }
    fill(cfg.hidden, cfg.outClasses, -1)
    off += cfg.outClasses // out bias = 0
    new Params(cfg, flat)
  }

  /** C = alpha·op(A)·op(B) + beta·C on column-major arrays at offsets. */
  private def gemm(transA: Boolean, transB: Boolean, m: Int, n: Int, k: Int,
                   a: Array[Double], aOff: Int, lda: Int, b: Array[Double], bOff: Int, ldb: Int,
                   beta: Double, c: Array[Double], cOff: Int, ldc: Int): Unit =
    BLAS.getInstance().dgemm(if (transA) "T" else "N", if (transB) "T" else "N", m, n, k,
      1.0, a, aOff, lda, b, bOff, ldb, beta, c, cOff, ldc)

  /** 1/c_{v,r} for every edge of every relation, aligned with the pairs of `g.rels(r)`. */
  private def edgeNorms(g: EncodedGraph): Array[Array[Double]] = g.rels.map { edges =>
    val deg = new Array[Int](g.n)
    var i = 0
    while (i < edges.length) { deg(edges(i)) += 1; i += 2 }
    val c = new Array[Double](edges.length / 2)
    i = 0
    while (i < edges.length) { c(i / 2) = 1.0 / deg(edges(i)); i += 2 }
    c
  }

  /** Activations of one forward pass. Every matrix is node-major: node v's
    * row of width d is `m(v*d until (v+1)*d)`, i.e. a column-major d × n
    * matrix. `hs(l)` is layer l's input (`hs(layers)` the last ReLU output),
    * `ys(l)` its transform `H·[W_0 | V…]`, and `logits` is n × outClasses.
    */
  private final class Forward(val norms: Array[Array[Double]], val hs: Array[Array[Double]],
                              val ys: Array[Array[Double]], val logits: Array[Double])

  private def forward(g: EncodedGraph, p: Params): Forward = {
    val cfg = p.cfg; val flat = p.flat
    val n = g.n; val nRel = cfg.relations; val nB = cfg.bases
    val norms = edgeNorms(g)
    val hs = new Array[Array[Double]](cfg.layers + 1)
    val ys = new Array[Array[Double]](cfg.layers)
    hs(0) = g.feats.flatten
    var off = 0
    for (l <- 0 until cfg.layers) {
      val (di, dout) = cfg.layerDims(l)
      val s = (nB + 1) * dout
      val aOff = off + (nB + 1) * di * dout
      val y = new Array[Double](s * n)
      gemm(transA = true, transB = false, s, n, di, flat, off, di, hs(l), 0, di, 0.0, y, 0, s)
      val z = new Array[Double](dout * n)
      for (v <- 0 until n) System.arraycopy(y, v * s, z, v * dout, dout)
      for (r <- 0 until nRel) {
        val edges = g.rels(r); val c = norms(r)
        for (b <- 0 until nB) {
          val arb = flat(aOff + b * nRel + r)
          if (arb != 0.0) {
            var e = 0
            while (e < c.length) {
              val coef = c(e) * arb
              val zo = edges(2 * e) * dout
              val yo = edges(2 * e + 1) * s + (b + 1) * dout
              var j = 0
              while (j < dout) { z(zo + j) += coef * y(yo + j); j += 1 }
              e += 1
            }
          }
        }
      }
      var i = 0
      while (i < z.length) { if (!(z(i) > 0)) z(i) = 0.0; i += 1 } // ReLU
      ys(l) = y
      hs(l + 1) = z
      off += cfg.layerParams(l)
    }
    val nC = cfg.outClasses
    val logits = new Array[Double](nC * n)
    gemm(transA = true, transB = false, nC, n, cfg.hidden, flat, off, cfg.hidden,
      hs(cfg.layers), 0, cfg.hidden, 0.0, logits, 0, nC)
    val bOff = off + cfg.hidden * nC
    for (v <- 0 until n; j <- 0 until nC) logits(v * nC + j) += flat(bOff + j)
    new Forward(norms, hs, ys, logits)
  }

  /** Per-node class probabilities. */
  def predictProbs(g: EncodedGraph, params: Params): Array[Array[Double]] = {
    val nC = params.cfg.outClasses
    val logits = forward(g, params).logits
    Array.tabulate(g.n) { v =>
      val row = logits.slice(v * nC, (v + 1) * nC)
      val m = row.max
      val ex = row.map(x => math.exp(x - m))
      val s = ex.sum
      ex.map(_ / s)
    }
  }

  /** Mean masked cross-entropy loss and flat gradient for one graph. */
  def lossAndGrad(g: EncodedGraph, params: Params): (Double, Array[Double]) = {
    val grad = new Array[Double](params.cfg.nParams)
    val loss = addLossGrad(g, params, grad)
    (loss, grad)
  }

  /** Adds one graph's loss gradient into `grad` (same layout as the
    * parameters) and returns its loss; see [[lossAndGrad]].
    */
  private[ml] def addLossGrad(g: EncodedGraph, params: Params, grad: Array[Double]): Double = {
    val cfg = params.cfg; val flat = params.flat
    val n = g.n; val nRel = cfg.relations; val nB = cfg.bases; val nC = cfg.outClasses
    val fw = forward(g, params)
    val nMasked = math.max(1, g.mask.count(identity))

    // softmax CE + dLogits
    var loss = 0.0
    val dLogits = new Array[Double](nC * n)
    for (v <- 0 until n if g.mask(v)) {
      val row = fw.logits.slice(v * nC, (v + 1) * nC)
      val m = row.max
      val ex = row.map(x => math.exp(x - m))
      val s = ex.sum
      val y = g.labels(v)
      loss += -(row(y) - m - math.log(s)) / nMasked
      for (j <- 0 until nC)
        dLogits(v * nC + j) = (ex(j) / s - (if (j == y) 1.0 else 0.0)) / nMasked
    }

    // output layer
    val outOff = (0 until cfg.layers).map(cfg.layerParams).sum
    val hidden = cfg.hidden
    gemm(transA = false, transB = true, hidden, nC, n, fw.hs(cfg.layers), 0, hidden,
      dLogits, 0, nC, 1.0, grad, outOff, hidden)
    val bOff = outOff + hidden * nC
    for (v <- 0 until n; j <- 0 until nC) grad(bOff + j) += dLogits(v * nC + j)
    var dH = new Array[Double](hidden * n)
    gemm(transA = false, transB = false, hidden, n, nC, flat, outOff, hidden,
      dLogits, 0, nC, 0.0, dH, 0, hidden)

    // backprop through layers
    var off = outOff
    for (l <- (cfg.layers - 1) to 0 by -1) {
      val (di, dout) = cfg.layerDims(l)
      off -= cfg.layerParams(l)
      val s = (nB + 1) * dout
      val aOff = off + (nB + 1) * di * dout
      val y = fw.ys(l); val hOut = fw.hs(l + 1)
      // dZ = dH where the ReLU was active; dY = [dZ | Σ_r a_rb Â_rᵀ dZ …]
      val dZ = new Array[Double](dout * n)
      var i = 0
      while (i < dZ.length) { if (hOut(i) > 0) dZ(i) = dH(i); i += 1 }
      val dY = new Array[Double](s * n)
      for (v <- 0 until n) System.arraycopy(dZ, v * dout, dY, v * s, dout)
      for (r <- 0 until nRel) {
        val edges = g.rels(r); val c = fw.norms(r)
        for (b <- 0 until nB) {
          val arb = flat(aOff + b * nRel + r)
          var dA = 0.0
          var e = 0
          while (e < c.length) {
            val zo = edges(2 * e) * dout
            val yo = edges(2 * e + 1) * s + (b + 1) * dout
            val coef = c(e) * arb
            var dot = 0.0
            var j = 0
            while (j < dout) {
              dot += dZ(zo + j) * y(yo + j)
              dY(yo + j) += coef * dZ(zo + j)
              j += 1
            }
            dA += c(e) * dot
            e += 1
          }
          grad(aOff + b * nRel + r) += dA
        }
      }
      gemm(transA = false, transB = true, di, s, n, fw.hs(l), 0, di, dY, 0, s, 1.0, grad, off, di)
      if (l > 0) {
        dH = new Array[Double](di * n)
        gemm(transA = false, transB = false, di, n, s, flat, off, di, dY, 0, s, 0.0, dH, 0, di)
      }
    }
    loss
  }
}
