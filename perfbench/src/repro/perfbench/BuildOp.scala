package repro.perfbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.apps.DocTagging
import repro.core.{GCTSPNet, GiantPipeline, Normalize, Ontology}
import repro.data.{ClickLogGen, OntoGen}
import repro.eval.{Datasets, DocTaggingEval, Tables}
import repro.graph.QTIG
import repro.ml.{RGCN, RGCNTrainer}
import repro.tsp.ATSP

/** The generated input of one workload: a gold ontology and its click log. */
final case class Inputs(onto: OntoGen.GoldOntology, log: ClickLogGen.ClickLog)

object Inputs {
  /** Same generator settings as `Tables.prepare`: the log is seeded `seed + 1`. */
  def generate(spark: SparkSession, s: Workloads.Scale, seed: Long): Inputs = {
    val onto = OntoGen.generate(OntoGen.Params(
      nDerivedConcepts = s.nConcepts, nEvents = s.nEvents, seed = seed))
    Inputs(onto, ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = seed + 1)))
  }
}

/** Quality of one build, judged against the generator's gold ontology. */
final case class Quality(conceptPhraseAcc: Double, eventPhraseAcc: Double,
                         edgeAcc: Map[String, Double], docConceptPrecision: Double,
                         docEventPrecision: Double, nodeCounts: Map[String, Long]) {

  /** Named end-to-end quality metrics. */
  def metrics: Seq[(String, Double)] = Seq(
    "concept_phrase_acc" -> conceptPhraseAcc,
    "event_phrase_acc" -> eventPhraseAcc,
    "isA_acc" -> edgeAcc.getOrElse(Quality.IsA, 0.0),
    "involve_acc" -> edgeAcc.getOrElse(Quality.Involve, 0.0),
    "correlate_acc" -> edgeAcc.getOrElse(Quality.Correlate, 0.0),
    "doc_concept_precision" -> docConceptPrecision,
    "doc_event_precision" -> docEventPrecision)

  /** Reasons this build falls outside the band the `bench/` suites assert;
    * empty when it is inside.
    */
  def violations: Seq[String] = {
    val edges = Seq(Quality.IsA, Quality.Involve, Quality.Correlate).flatMap { k =>
      edgeAcc.get(k) match {
        case None => Some(s"no $k edges")
        case Some(a) if !(a > 0.85) => Some(f"$k accuracy $a%.3f <= 0.85")
        case _ => None
      }
    }
    val docs = Seq("concept" -> docConceptPrecision, "event" -> docEventPrecision).collect {
      case (k, p) if !(p > 0.7) => f"doc $k precision $p%.3f <= 0.7"
    }
    def n(kind: String): Long = nodeCounts.getOrElse(kind, 0L)
    val shape =
      (if (n("entity") > n("concept")) None else Some(s"entity nodes ${n("entity")} <= concept ${n("concept")}")) ++
      (if (n("event") > n("topic")) None else Some(s"event nodes ${n("event")} <= topic ${n("topic")}"))
    edges ++ docs ++ shape
  }
}

object Quality {
  val IsA = "isA"; val Involve = "involve"; val Correlate = "correlate"

  def judge(res: GiantPipeline.Result, tags: DocTaggingEval.Report): Quality = {
    val onto = res.onto
    val built = res.built
    Quality(
      Tables.phraseAccuracy(built.conceptNodes, id => onto.conceptById.get(id).map(_.tokens)),
      Tables.phraseAccuracy(built.eventNodes, id => onto.eventById.get(id).map(_.tokens)),
      Tables.judgeEdges(onto, built).map(s => s.kind -> s.accuracy).toMap,
      tags.conceptPrecision, tags.eventPrecision, built.countByKind)
  }
}

/** Outcome of one measured build. `layers` is filled in traced ops only. */
final case class OpResult(stageS: Seq[(String, Double)], buildS: Double, liveHeapMb: Double,
                          quality: Quality, digest: String, sizes: Seq[(String, Long)],
                          layers: Map[String, Double], attempted: Int, failures: Seq[String])

/** One build: the stages `GiantPipeline.run` runs after input generation
  * (`Datasets.build` → `trainModels` → `minePhrases` → `assemble`), then the
  * read path (`DocTaggingEval.run`), then the output check.
  *
  * With `counters` set the op is traced: Spark counters are read between the
  * stages, and the per-call timings of each layer are taken after all stage
  * calls, so the stage spans themselves are not inflated.
  */
final class BuildOp(spark: SparkSession, in: Inputs, epochs: Int,
                    counters: Option[SparkCounters]) {

  private val sc = spark.sparkContext
  private val cores = sc.defaultParallelism
  private val stageS = mutable.LinkedHashMap[String, Double]()
  private val spans = mutable.Map[String, Counts]()
  private var attempted = 0
  private val traceIssues = mutable.ArrayBuffer[String]()

  /** Times one public stage call; counts it as an attempted operation. */
  private def stage[A](name: String)(f: => A): A = {
    attempted += 1
    val before = counters.map(_.snapshot(sc))
    val t0 = System.nanoTime
    val r = f
    stageS(name) = (System.nanoTime - t0) / 1e9
    for (c <- counters; b <- before) spans(name) = c.snapshot(sc) - b
    r
  }

  def run(): OpResult = {
    val opStart = counters.map(_.snapshot(sc))
    val corpus = stage("Datasets.build")(Datasets.build(spark, in.onto, in.log))
    val models = stage("trainModels")(GiantPipeline.trainModels(spark, corpus, epochs))
    val (mc, me) = stage("minePhrases")(GiantPipeline.minePhrases(spark, corpus, models))
    val built = stage("assemble")(
      GiantPipeline.assemble(spark, in.onto, in.log, corpus, models, mc, me))
    val buildS = stageS.values.sum
    val res = GiantPipeline.Result(in.onto, in.log, corpus, models, built)

    val tags = stage("DocTaggingEval.run")(DocTaggingEval.run(res))

    val t0 = System.nanoTime
    val quality = Quality.judge(res, tags)
    stageS("judge") = (System.nanoTime - t0) / 1e9
    attempted += 1 // the output check
    val digest = Stats.digest(built)
    val layers = counters.map(c => traceLayers(res, mc, me, tags, c, opStart.get)).getOrElse(Map.empty)
    val heap = Jvm.liveHeapMb()
    java.lang.ref.Reference.reachabilityFence(res)

    val sizes = Seq(
      "clusters" -> (corpus.cmd.size + corpus.emd.size).toLong,
      "train_graphs.concept" -> corpus.train(corpus.cmd).size.toLong,
      "train_graphs.event" -> corpus.train(corpus.emd).size.toLong,
      "train_graphs.element" -> corpus.train(corpus.emd).size.toLong,
      "docs" -> in.log.docRows.size.toLong,
      "queries" -> in.log.queryRows.size.toLong,
      "clicks" -> in.log.clickRows.size.toLong,
      "entities" -> in.onto.entities.size.toLong,
      "events" -> in.onto.events.size.toLong)
    OpResult(stageS.toSeq, buildS, heap, quality, digest, sizes, layers,
      attempted, quality.violations ++ traceIssues)
  }

  private def secondsOf(f: => Unit): Double = { val t0 = System.nanoTime; f; (System.nanoTime - t0) / 1e9 }

  /** Per-layer metrics of a traced op (see `BENCHMARK.json` `per_layer`). */
  private def traceLayers(res: GiantPipeline.Result,
                          mc: Seq[Normalize.MinedPhrase], me: Seq[Normalize.MinedPhrase],
                          tags: DocTaggingEval.Report, c: SparkCounters,
                          opStart: Counts): Map[String, Double] = {
    val corpus = res.corpus
    val models = res.models
    val m = mutable.LinkedHashMap[String, Double]()
    def spanOf(stageName: String, prefix: String, keys: String*): Unit = {
      val s = spans(stageName)
      val wall = stageS(stageName)
      val all = Map(
        "s" -> wall, "spark_jobs" -> s.jobs.toDouble, "spark_tasks" -> s.tasks.toDouble,
        "task_s" -> s.taskS, "shuffle_bytes" -> s.shuffleBytes.toDouble,
        "busy_share" -> s.taskS / (wall * cores), "result_bytes" -> s.resultBytes.toDouble,
        "gc_s" -> s.jvmGcS)
      keys.foreach(k => m(s"$prefix.$k") = all(k))
    }

    // graph: random-walk clusters (stage span) and one QTIG per cluster
    spanOf("Datasets.build", "graph.clusters",
      "s", "spark_jobs", "spark_tasks", "task_s", "shuffle_bytes", "busy_share")
    val examples = corpus.cmd ++ corpus.emd
    var qtigs: Seq[QTIG.Graph] = Seq.empty
    m("graph.qtig.s") = secondsOf {
      qtigs = examples.map(ex => QTIG.build(ex.queries.map(_.tokens), ex.titles.map(_.tokens)))
    }
    m("graph.qtig.calls") = qtigs.size
    m("graph.qtig.nodes_mean") = qtigs.map(_.size.toDouble).sum / math.max(1, qtigs.size)
    val qtigOf = examples.map(_.seed).zip(qtigs).toMap

    // ml: training span, then per-call timings with the trained parameters
    spanOf("trainModels", "ml.train",
      "s", "spark_jobs", "spark_tasks", "task_s", "busy_share", "result_bytes", "gc_s")
    val cmdTrain = corpus.train(corpus.cmd)
    val emdTrain = corpus.train(corpus.emd)
    m("ml.train.graph_epochs_per_s") =
      (cmdTrain.size + 2 * emdTrain.size).toDouble * epochs / stageS("trainModels")
    val heads = Seq(
      ("concept", models.conceptMiner, cmdTrain.map(ex =>
        GCTSPNet.encode(qtigOf(ex.seed), GCTSPNet.binaryLabels(ex.gold)))),
      ("event", models.eventMiner, emdTrain.map(ex =>
        GCTSPNet.encode(qtigOf(ex.seed), GCTSPNet.binaryLabels(ex.gold)))),
      ("element", models.elementClassifier, emdTrain.map(ex =>
        GCTSPNet.encode(qtigOf(ex.seed),
          GCTSPNet.elementLabels(ex.goldEntity, ex.goldTrigger, ex.goldLocation)))))
    var lossGradS = 0.0
    var forwardS = 0.0
    for ((name, params, graphs) <- heads) {
      var loss = 0.0
      lossGradS += secondsOf(graphs.foreach(g => loss += RGCN.lossAndGrad(g, params)._1))
      forwardS += secondsOf(graphs.foreach(g => RGCN.predictProbs(g, params)))
      m(s"ml.train.final_loss.$name") = loss / math.max(1, graphs.size)
    }
    val nGraphs = math.max(1, heads.map(_._3.size).sum)
    m("ml.forward.ms_per_graph") = forwardS * 1e3 / nGraphs
    m("ml.loss_grad.ms_per_graph") = lossGradS * 1e3 / nGraphs
    val adamParams = models.conceptMiner.flat.clone()
    val adam = new RGCNTrainer.Adam(adamParams.length, RGCNTrainer.TrainConfig())
    val grad = heads.head._3.headOption
      .map(g => RGCN.lossAndGrad(g, models.conceptMiner)._2)
      .getOrElse(new Array[Double](adamParams.length))
    m("ml.adam.ms_per_step") =
      secondsOf((1 to BuildOp.AdamSteps).foreach(_ => adam.step(adamParams, grad))) * 1e3 / BuildOp.AdamSteps

    // tsp + mining: ATSP decoding of every cluster's predicted positives
    var decodeS = 0.0
    var exact = 0
    for ((xs, params) <- Seq(corpus.cmd -> models.conceptMiner, corpus.emd -> models.eventMiner);
         ex <- xs) {
      val g = qtigOf(ex.seed)
      val positives = GCTSPNet.predictPositives(g, GCTSPNet.encode(g, _ => 0), params)
      if (positives.size <= ATSP.ExactLimit) exact += 1
      decodeS += secondsOf(GCTSPNet.atspDecode(g, positives))
    }
    m("tsp.decode.calls") = examples.size
    m("tsp.decode.s") = decodeS
    m("tsp.exact_share") = exact.toDouble / math.max(1, examples.size)
    m("core.mine.s") = stageS("minePhrases")
    m("core.mine.empty_share") = (mc ++ me).count(_.tokens.isEmpty).toDouble / math.max(1, mc.size + me.size)

    // core: assemble span, its output, and normalization on its own
    spanOf("assemble", "core.assemble", "s", "spark_jobs", "task_s")
    val nodes = res.built.countByKind
    BuildOp.NodeKinds.foreach(k => m(s"core.assemble.nodes.$k") = nodes.getOrElse(k, 0L).toDouble)
    val edges = res.built.edges.groupBy(_.how).view.mapValues(_.size).toMap
    BuildOp.EdgeHows.foreach(h => m(s"core.assemble.edges.$h") = edges.getOrElse(h, 0).toDouble)
    var normalized = 0
    m("core.normalize.s") = secondsOf {
      normalized = Normalize.normalize(mc, idBase = Ontology.ConceptNodeBase).size +
        Normalize.normalize(me, idBase = Ontology.EventNodeBase).size
    }
    m("core.normalize.merge_ratio") =
      normalized.toDouble / math.max(1, (mc ++ me).count(_.tokens.nonEmpty))

    // apps: DocTaggingEval span, then each doc tagged call by call
    m("apps.tag.s") = stageS("DocTaggingEval.run")
    m("apps.tag.docs_per_s") = res.log.docRows.size / stageS("DocTaggingEval.run")
    m("apps.tag.concept_coverage") = tags.conceptCoverage
    m("apps.tag.event_coverage") = tags.eventCoverage
    val perDoc = BuildOp.tagPerDoc(res).toMap
    m ++= perDoc.filter(_._1.startsWith("apps."))
    for ((k, v) <- Seq("concept" -> tags.conceptCoverage, "event" -> tags.eventCoverage)
         if perDoc(s"cross_check.$k") != v)
      traceIssues += s"per-doc $k coverage ${perDoc(s"cross_check.$k")} != DocTaggingEval.run's $v"

    val whole = c.snapshot(sc) - opStart
    m("spark.jobs") = whole.jobs
    m("spark.tasks") = whole.tasks
    m("spark.task_s") = whole.taskS
    m("spark.shuffle_bytes") = whole.shuffleBytes
    m("spark.gc_s") = whole.taskGcS
    m("jvm.gc_s") = whole.jvmGcS
    m.toMap
  }
}

object BuildOp {
  /** Adam steps timed per traced op. */
  val AdamSteps = 200
  /** Docs tagged call by call per traced op: enough for ten beyond p99. */
  val MinTagSamples = 1000

  val NodeKinds = Seq("category", "concept", "topic", "event", "entity", "trigger", "location")
  val EdgeHows = Seq("attention-category", "concept-suffix", "event-topic", "topic-concept",
    "entity-concept", "event-entity", "event-trigger", "event-location", "entity-entity")

  /** Tags docs one call at a time, the calls `DocTaggingEval.run` makes, on
    * the same inputs it prepares, cycling through the docs until
    * [[MinTagSamples]] are timed. Latency of a doc is its `tagConcepts` plus
    * its `tagEvents` call; `keyEntities` (inside `tagConcepts`) is timed on
    * its own. The first pass's coverage is returned too, as a cross-check
    * against the report of `DocTaggingEval.run` (keys `cross_check.*`).
    */
  def tagPerDoc(res: GiantPipeline.Result): Seq[(String, Double)] = {
    val built = res.built
    val dictionary = res.onto.entities.map(e => (e.id, e.name))
    val parentConcepts: Map[Long, Seq[Long]] =
      built.edges.filter(_.how == "entity-concept")
        .groupBy(_.src).view.mapValues(_.map(_.dst)).toMap
    val docById = res.log.docRows.map(d => d.doc_id -> d).toMap
    val conceptRep: Map[Long, Seq[String]] = built.conceptNodes.map { n =>
      n.id -> (n.phrase ++ n.docIds.take(5).flatMap(docById.get).flatMap(_.title))
    }.toMap
    val eventPhrases = built.eventNodes.map(n => (n.id, n.phrase))
    val docs = res.log.docRows
    val nDocs = docs.size
    val df = docs.map(_.title).flatMap(_.distinct).groupBy(identity).view.mapValues(_.size).toMap

    val latencyMs = mutable.ArrayBuffer[Double]()
    var keyS, conceptS, eventS = 0.0
    var conceptTagged, eventTagged = 0
    var i = 0
    while (i < nDocs || latencyMs.size < MinTagSamples) {
      val d = docs(i % nDocs)
      val t0 = System.nanoTime
      DocTagging.keyEntities(d.body, dictionary)
      val t1 = System.nanoTime
      val cTags = DocTagging.tagConcepts(d.title, d.body, dictionary, parentConcepts, conceptRep, df, nDocs)
      val t2 = System.nanoTime
      val eTags = DocTagging.tagEvents(d.title, d.body, eventPhrases)
      val t3 = System.nanoTime
      keyS += (t1 - t0) / 1e9; conceptS += (t2 - t1) / 1e9; eventS += (t3 - t2) / 1e9
      latencyMs += (t3 - t1) / 1e6
      if (i < nDocs) {
        if (cTags.nonEmpty) conceptTagged += 1
        if (eTags.nonEmpty) eventTagged += 1
      }
      i += 1
    }
    val n = latencyMs.size
    Seq(
      "apps.tag.p50_ms" -> Stats.percentile(latencyMs.toSeq, 50),
      "apps.tag.p99_ms" -> Stats.percentile(latencyMs.toSeq, 99),
      "apps.tag.samples" -> n.toDouble,
      "apps.key_entities.ms_per_doc" -> keyS * 1e3 / n,
      "apps.tag_concepts.ms_per_doc" -> conceptS * 1e3 / n,
      "apps.tag_events.ms_per_doc" -> eventS * 1e3 / n,
      "cross_check.concept" -> conceptTagged.toDouble / nDocs,
      "cross_check.event" -> eventTagged.toDouble / nDocs)
  }
}
