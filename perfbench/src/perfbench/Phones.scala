package perfbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.core._
import repro.core.Hierarchy.PNode
import repro.dist.{PatternClusteringSpark, TransformSpark}
import repro.sim.{ClxSim, FlashFillSim, RegexReplaceSim}

/** The Spark pipeline over a `SynthData.messyPhones` column, in
  * `TransformJob`'s order: cluster → label → synth → apply → verify.
  *
  * One client in a closed loop: the next pipeline starts when the previous
  * one has verified its output. Every Spark phase ends in an action, so no
  * phase's work is billed to the next one by Spark's laziness.
  */
object Phones {

  /** Rows of the cached column, and of the `--smoke` setting's column. */
  val Rows = 1000000L
  val SmokeRows = 20000L
  /** Untimed pipelines before measuring: `Warmups` on fresh columns of
    * `WarmupRows` rows, which make the code hot cheaply, then one on the
    * cached column, without which the first timed pipeline ran 10-15%
    * slower than the rest.
    */
  val Warmups = 1
  val WarmupRows = 100000L
  /** Measured pipelines even when `--seconds` is shorter; past `--seconds`,
    * the run waits up to `QuietWaitS` for this many quiet ones (see [[Host]]).
    */
  val MinRuns = 3
  val QuietWaitS = 10.0

  val Formats = 6
  val SetupReps = 5
  /** Rows of the column handed to the three simulated users (traced only). */
  val SimRows = 300
  /** Span unit of pipeline `u`'s simulated users, kept apart from its phases. */
  private def simUnit(u: Int): Int = 1000000 + u

  /** What one pipeline left behind for the gates and the per-layer metrics. */
  final case class Run(unit: Int, wall: Double, hier: PNode, targets: Vector[Pattern],
                       result: Synthesizer.Result, wrong: Long, flagged: Long,
                       outPatterns: Vector[(String, Long, Boolean)], verified: Boolean,
                       walkMatches: Boolean, regexMismatches: Long, walk: SynthWalk.Counts,
                       sims: Option[(ClxSim.Outcome, FlashFillSim.Outcome, RegexReplaceSim.Outcome)],
                       steal: Double) {
    def quiet: Boolean = steal <= Host.MaxSteal
  }

  def run(a: Args): Outcome = {
    val rows = if (a.smoke) SmokeRows else Rows
    def column(spark: SparkSession, i: Int, n: Long = rows): DataFrame = {
      val df = SynthData.messyPhones(spark, n, Formats, seed = a.seed + i).cache()
      df.count()
      df
    }

    // Set-up: SparkSession start plus the first cached column, repeated so
    // that set-up time is a median rather than one sample. The first
    // repetition is the cold start of the JVM.
    var spark: SparkSession = null
    var data: DataFrame = null
    val setups = (1 to (if (a.smoke) 1 else SetupReps)).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = Main.newSession()
      data = column(spark, 0)
      (System.nanoTime() - t0) / 1e9
    }
    val sc = spark.sparkContext
    val work = if (a.trace) Some(new SparkWork) else None
    work.foreach(sc.addSparkListener)
    val tr = new Tracer(Some(sc))

    try {
      tr.unit = -1
      (1 to (if (a.smoke) 1 else Warmups)).foreach { w =>
        val df = column(spark, -w, math.min(rows, WarmupRows))
        pipeline(df, tr, a.trace)
        df.unpersist()
      }
      if (!a.smoke) pipeline(data, tr, a.trace)
      val minRuns = if (a.smoke) 1 else MinRuns
      val runs = mutable.ArrayBuffer.empty[Either[String, Run]]
      def quiet = runs.count(_.exists(_.quiet))
      val start = System.nanoTime()
      def elapsed = (System.nanoTime() - start) / 1e9
      while (runs.size < minRuns || elapsed < a.seconds || (quiet < minRuns && elapsed < a.seconds + QuietWaitS)) {
        val k = runs.size
        tr.unit = k
        // Each pipeline starts on a collected heap, so none pays for the
        // garbage of the one before and the heap's footprint stays the
        // live data plus the fixed young generation (see run.py).
        System.gc()
        runs += (try Right(pipeline(data, tr, a.trace)) catch {
          case e: Exception => Left(s"pipeline $k: $e")
        })
      }
      work.foreach(_ => SparkWork.drain(sc))
      summarize(a, rows, minRuns, runs.toVector, tr, work, setups)
    } finally spark.stop()
  }

  private def pipeline(data: DataFrame, tr: Tracer, traced: Boolean): Run = {
    val cpu0 = Host.cpu()
    val t0 = System.nanoTime()
    val hier = tr.span("cluster") {
      if (!traced) PatternClusteringSpark.hierarchy(data, "raw")
      else {
        val leaves = tr.span("cluster.leaf")(PatternClusteringSpark.leafClusters(data, "raw"))
        tr.span("cluster.hierarchy")(Hierarchy.root(Hierarchy.build(leaves.toSeq)))
      }
    }
    val targets = tr.span("label") {
      val sample = data.filter(col("raw") === col("expected"))
        .select("raw").limit(100).collect().map(_.getString(0)).toSeq
      tr.span("synth.targets")(Synthesizer.leafClusters(sample).keys.toVector)
    }
    val result = tr.span("synth")(Synthesizer.synthesize(hier, targets))
    val prog = result.program(targets)

    val out = TransformSpark.transform(data, "raw", prog).cache()
    try {
      val (wrong, flagged) = tr.span("apply")(mismatches(out, Some("matched")))
      val (outPatterns, verified) = tr.span("verify") {
        val ps = TransformSpark.verifyPatterns(out, "transformed", targets).collect()
          .map(r => (r.getString(0), r.getLong(1), r.getBoolean(2))).toVector
        (ps, TransformSpark.allVerified(out, "transformed", "matched", targets))
      }
      val wall = (System.nanoTime() - t0) / 1e9
      val steal = Host.stealShare(cpu0, Host.cpu())

      // Traced only, after the pipeline's clock has stopped.
      val walk = new SynthWalk.Counts
      var walkMatches = true
      var regexMismatches = 0L
      var sims: Option[(ClxSim.Outcome, FlashFillSim.Outcome, RegexReplaceSim.Outcome)] = None
      if (traced) {
        walkMatches = SynthWalk.run(hier, targets, 10, tr, walk) == result
        val viaRegex = TransformSpark.transformViaRegex(data, "raw", prog).cache()
        tr.span("apply.regex")(mismatches(viaRegex, None))
        viaRegex.unpersist()
        regexMismatches = TransformSpark.transformViaRegex(out, "raw", prog, out = "via_regex")
          .filter(not(col("transformed") <=> col("via_regex"))).count()
        val pairs = data.limit(SimRows).collect().map(r => (r.getString(0), r.getString(1))).toVector
        val unit = tr.unit
        tr.unit = simUnit(unit)
        try sims = Some(Corpus.users(pairs, tr, Some(new SynthWalk.Counts))).map(u => (u._1, u._2, u._3))
        finally tr.unit = unit
      }
      Run(tr.unit, wall, hier, targets, result, wrong, flagged, outPatterns, verified,
          walkMatches, regexMismatches, walk, sims, steal)
    } finally out.unpersist()
  }

  /** The one action that materialises a transformed column: counts rows
    * whose output differs from the ground truth and, given the flag
    * column, rows no branch matched.
    */
  private def mismatches(out: DataFrame, flag: Option[String]): (Long, Long) = {
    val r: Row = out.agg(
      count(when(not(col("transformed") <=> col("expected")), 1)),
      flag.fold(lit(0L))(f => count(when(not(col(f)), 1))),
    ).head()
    (r.getLong(0), r.getLong(1))
  }

  private def gates(r: Run, traced: Boolean): Vector[String] = {
    val u = s"pipeline ${r.unit}"
    Vector(
      Option.when(r.wrong != 0)(s"$u: ${r.wrong} rows differ from the expected output"),
      Option.when(!r.verified)(s"$u: allVerified is false"),
      Option.when(r.outPatterns.exists(!_._3))(
        s"$u: output patterns not in the targets: ${r.outPatterns.filterNot(_._3).map(_._1).mkString(" ")}"),
      Option.when(r.hier.leaves.size != Formats)(s"$u: ${r.hier.leaves.size} leaf patterns, expected $Formats"),
      Option.when(traced && !r.walkMatches)(s"$u: stage walk differs from Synthesizer.synthesize"),
      Option.when(traced && r.regexMismatches != 0)(
        s"$u: transformViaRegex differs from transform on ${r.regexMismatches} rows"),
    ).flatten
  }

  private def summarize(a: Args, rows: Long, minRuns: Int, runs: Vector[Either[String, Run]], tr: Tracer,
                        work: Option[SparkWork], setups: Seq[Double]): Outcome = {
    val all = runs.collect { case Right(r) => r }
    val failures = runs.collect { case Left(e) => e } ++ all.flatMap(gates(_, a.trace))
    val failedUnits = runs.count(_.isLeft) + all.count(r => gates(r, a.trace).nonEmpty)
    require(all.nonEmpty, s"every pipeline failed: ${failures.mkString("; ")}")
    // Every pipeline is gated; the timings come from the quiet ones, or
    // from all of them when too few were quiet.
    val ok = if (all.count(_.quiet) >= minRuns) all.filter(_.quiet) else all

    def med(f: Run => Double): Double = Stats.median(ok.map(f))
    def secs(name: String)(r: Run): Double = tr.seconds(r.unit, name)
    val wall = ok.map(_.wall * 1000)
    // The driver-side CLX step of a pipeline (label + synth), the analogue
    // of a corpus task. Synthesis alone takes a few ms, and in a JVM that
    // calls it once per pipeline its JIT state makes it bimodal run to run.
    val taskMs = ok.map(r => (secs("label")(r) + secs("synth")(r)) * 1000)

    val endToEnd = Vector(
      Metric("setup_s", Stats.median(setups), "s"),
      Metric("peak_rss_mb", Main.peakRssMb, "MB"),
      Metric("rows_per_s", rows / med(_.wall), "rows/s"),
      Metric("clusters_s", med(secs("cluster")), "s"),
      Metric("verified_s", med(r => secs("synth")(r) + secs("apply")(r) + secs("verify")(r)), "s"),
      Metric("pipeline_ms_p50", Stats.median(wall), "ms"),
      Metric("corpus_s", med(_.wall), "s"),
    )
    // Too unsteady from run to run on a shared machine to carry a bound,
    // so these print with the traced run's per-layer metrics.
    val tail = Vector(
      Metric("pipeline_ms_p90", Stats.quantile(wall, 0.9), "ms"),
      Metric("task_ms_p50", Stats.median(taskMs), "ms"),
      Metric("task_ms_p90", Stats.quantile(taskMs, 0.9), "ms"),
    )

    val metrics = if (!a.trace) endToEnd else tail ++ {
      val w = work.get
      // A layer's spans, by name: its own and its children's.
      val layers = Map("cluster" -> Set("cluster", "cluster.leaf", "cluster.hierarchy"),
        "label" -> Set("label", "synth.targets"), "apply" -> Set("apply"), "verify" -> Set("verify"))
      def spark(layer: String)(r: Run): SparkCounts =
        w.sum(tr.all.filter(s => s.unit == r.unit && layers(layer)(s.name)).map(_.id))
      def cpu(layer: String)(r: Run): Double = spark(layer)(r).executorCpuNs / 1e9
      def mb(layer: String)(r: Run): Double = spark(layer)(r).shuffleWriteBytes / 1048576.0
      val phases = Seq("cluster", "label", "synth", "apply", "verify")
      // The median traced pipeline supplies the stage-walk counters.
      val mid = ok.sortBy(_.wall).apply(ok.size / 2)
      val sims = ok.flatMap(_.sims)
      Vector(
        Metric("cluster.leaf_s", med(secs("cluster.leaf")), "s"),
        Metric("cluster.hierarchy_s", med(secs("cluster.hierarchy")), "s"),
        Metric("cluster.spark_jobs", med(spark("cluster")(_).jobs), "count"),
        Metric("cluster.spark_tasks", med(spark("cluster")(_).tasks), "count"),
        Metric("cluster.shuffle_write_mb", med(mb("cluster")), "MB"),
        Metric("cluster.executor_cpu_s", med(cpu("cluster")), "s"),
        Metric("cluster.leaf_patterns", med(_.hier.leaves.size), "count"),
        Metric("cluster.hierarchy_nodes", med(_.hier.preOrder.size), "count"),
        Metric("label_s", med(secs("label")), "s"),
        Metric("label.spark_jobs", med(spark("label")(_).jobs), "count"),
        Metric("synth_s", med(secs("synth")), "s"),
        Metric("synth.branches", med(_.result.solutions.size), "count"),
        Metric("synth.noise_patterns", med(_.result.noise.size), "count"),
        Metric("synth.targets_s", med(secs("synth.targets")), "s"),
        Metric("synth.local_hierarchy_s", med(secs("cluster.hierarchy")), "s"),
      ) ++ SynthWalk.metrics(tr, mid.unit, mid.walk) ++ Vector(
        Metric("apply_s", med(secs("apply")), "s"),
        Metric("apply.regex_s", med(secs("apply.regex")), "s"),
        Metric("apply.spark_jobs", med(spark("apply")(_).jobs), "count"),
        Metric("apply.executor_cpu_s", med(cpu("apply")), "s"),
        Metric("apply.flagged_rows", med(_.flagged.toDouble), "count"),
        Metric("apply.regex_mismatches", all.map(_.regexMismatches).sum.toDouble, "count"),
        Metric("verify_s", med(secs("verify")), "s"),
        Metric("verify.spark_jobs", med(spark("verify")(_).jobs), "count"),
        Metric("verify.shuffle_write_mb", med(mb("verify")), "MB"),
        Metric("verify.output_patterns", med(_.outPatterns.size), "count"),
        Metric("sim.clx_s", med(r => tr.seconds(simUnit(r.unit), "sim.clx")), "s"),
        Metric("sim.ff_s", med(r => tr.seconds(simUnit(r.unit), "sim.ff")), "s"),
        Metric("sim.rr_s", med(r => tr.seconds(simUnit(r.unit), "sim.rr")), "s"),
        Metric("sim.repair_s", med(r => Corpus.repairSeconds(tr, simUnit(r.unit))), "s"),
        Metric("sim.clx_steps_total", Stats.median(sims.map(_._1.steps.toDouble)), "count"),
        Metric("sim.ff_steps_total", Stats.median(sims.map(_._2.steps.toDouble)), "count"),
        Metric("sim.rr_steps_total", Stats.median(sims.map(_._3.steps.toDouble)), "count"),
        Metric("jvm.gc_s", tr.gcMillis / 1000.0, "s"),
        Metric("jvm.gc_count", tr.gcCount.toDouble, "count"),
        Metric("trace.pipeline_s", med(_.wall), "s"),
        Metric("trace.span_coverage", med(r => phases.map(p => secs(p)(r)).sum / r.wall), "ratio"),
      )
    }

    val detail = Vector(
      "rows" -> rows,
      "pipelines" -> all.size,
      "timed_pipelines" -> ok.size,
      "max_steal" -> Host.MaxSteal,
      "steal" -> all.map(_.steal),
      "setup_s" -> setups,
      "pipeline_s" -> all.map(_.wall),
      "phase_s" -> all.map(r => Seq("cluster", "label", "synth", "apply", "verify").map(p => p -> secs(p)(r))),
      "targets" -> ok.headOption.map(_.targets.map(_.render)).getOrElse(Vector.empty),
      "output_patterns" -> ok.headOption.map(_.outPatterns.map(p => Vector("pattern" -> p._1, "n" -> p._2)))
        .getOrElse(Vector.empty),
      "spans" -> tr.all.filter(_.unit >= 0).map(s => Vector("id" -> s.id, "name" -> s.name,
        "parent" -> s.parent, "unit" -> s.unit, "s" -> s.seconds, "gc_ms" -> s.gcMs)),
    )
    Outcome(runs.size, failedUnits, failures, metrics, detail)
  }
}
