package perfbench

import java.net.URLClassLoader
import java.nio.file.Paths
import java.util.regex.{Pattern => JPattern}

import scala.collection.mutable

import repro.benchmark.Benchmarks
import repro.benchmark.Benchmarks.Task
import repro.core._
import repro.sim.{ClxSim, Comparison, FlashFillSim, RegexReplaceSim}

/** The 47 Table 6 tasks, each run through the three simulated users as
  * `Comparison.runTask` does (the Table 7 regeneration), on the driver
  * only. One client in a closed loop: tasks run one after another.
  */
object Corpus {

  /** Table 7's pinned CLX failures (`Table7Bench`); every other task must
    * be perfect for CLX, and every task perfect for FlashFill and
    * RegexReplace.
    */
  val ClxFailures = Set("ff-ex13-conditional", "ff-mixed-names", "bf-address", "prose-email", "prose-popl13")

  /** Plans kept per source pattern, as `ClxSim.run` asks for. */
  val K = 40
  val SetupReps = 7
  /** Measured passes even when `--seconds` is shorter; past `--seconds`,
    * the run goes on for up to `QuietWaitS` while some task has had no
    * quiet run (see [[Host]]).
    */
  val MinPasses = 3
  val QuietWaitS = 10.0
  /** Per pass, a task faster than `RepeatS` runs up to `MaxRepeats` times
    * back to back (sized from its warm-up run; untraced runs only): one GC
    * pause can double a millisecond task's sample, so those tasks need more
    * samples for a steady median.
    */
  val RepeatS = 0.05
  val MaxRepeats = 5
  /** The one task that takes seconds (ROADMAP item 2). `--smoke` leaves it
    * out, and so does the warm-up pass: its own first seconds warm the code
    * it runs, and a warm-up run of it would cost a fourth of a run.
    */
  val Slow = Set("prose-popl13")

  /** One task through the three users: `seconds` holds the timed calls
    * ("cluster", "sim.clx", "sim.ff", "sim.rr"), `counts` the traced run's
    * per-layer counters, both by name.
    */
  final case class TaskRun(task: Task, clx: ClxSim.Outcome, ff: FlashFillSim.Outcome,
                           rr: RegexReplaceSim.Outcome, seconds: Map[String, Double],
                           counts: Map[String, Int] = Map.empty, steal: Double = 0.0) {
    def users: Double = seconds("sim.clx") + seconds("sim.ff") + seconds("sim.rr")
    def quiet: Boolean = steal <= Host.MaxSteal
  }

  def run(a: Args): Outcome = {
    val tr = new Tracer(None)
    tr.unit = -1
    val setups = (0 until (if (a.smoke) 1 else SetupReps)).map(i => tr.timed("setup")(buildCorpus(fresh = i > 0))._2)
    // The corpus is fixed, so the seed changes nothing; tasks run in
    // Table 6 order, as in `Comparison.runAll`.
    val tasks = Benchmarks.all.filterNot(t => a.smoke && Slow(t.id))
    val warm = tasks.filterNot(t => Slow(t.id)).map(t => t.id -> users(t.data, tr, None)._4.values.sum).toMap
    def repeats(t: Task): Int =
      if (a.trace) 1 else warm.get(t.id).fold(1)(w => math.min(MaxRepeats, math.max(1, math.ceil(RepeatS / w).toInt)))

    val passes = mutable.ArrayBuffer.empty[Vector[Either[String, TaskRun]]]
    val walks = mutable.ArrayBuffer.empty[SynthWalk.Counts]
    val minPasses = if (a.smoke) 1 else MinPasses
    def unquiet = tasks.exists(t => !passes.exists(_.exists(_.exists(r => r.task.id == t.id && r.quiet))))
    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    while (passes.size < minPasses || elapsed < a.seconds || (unquiet && elapsed < a.seconds + QuietWaitS)) {
      tr.unit = passes.size
      val walk = new SynthWalk.Counts
      // Each pass starts on a collected heap (see Phones).
      System.gc()
      passes += tr.span("pass")(tasks.flatMap { t =>
        Vector.fill(repeats(t)) {
          try Right {
            val (r, steal) = Host.measured(if (a.trace) traced(t, tr, walk) else untraced(t, tr))
            r.copy(steal = steal)
          } catch { case e: Exception => Left(s"pass ${tr.unit} ${t.id}: $e") }
        }
      })
      walks += walk
    }
    summarize(a, tasks, passes.toVector, walks.toVector, tr, setups)
  }

  /** Builds the corpus: in this class loader the first time, then in a
    * fresh loader over the same class path, so each repetition pays the
    * class loading and generation a new process pays.
    */
  private def buildCorpus(fresh: Boolean): Int =
    if (!fresh) Benchmarks.all.size
    else {
      val urls = System.getProperty("java.class.path").split(java.io.File.pathSeparator)
        .map(p => Paths.get(p).toUri.toURL)
      val loader = new URLClassLoader(urls, ClassLoader.getPlatformClassLoader)
      try {
        val module = loader.loadClass("repro.benchmark.Benchmarks$").getField("MODULE$").get(null)
        val all = module.getClass.getMethod("all").invoke(module)
        all.getClass.getMethod("size").invoke(all).asInstanceOf[Integer].intValue
      } finally loader.close()
    }

  private def untraced(t: Task, tr: Tracer): TaskRun = {
    val (_, cluster) = tr.timed("cluster")(Synthesizer.hierarchyOf(t.data.map(_._1)))
    val (clx, ff, rr, seconds) = users(t.data, tr, None)
    TaskRun(t, clx, ff, rr, seconds + ("cluster" -> cluster))
  }

  /** The three simulated users on `data`; with `walk` given, also the
    * user-side calls of `ClxSim.run` one by one (targets, hierarchy,
    * synthesis) and the stage walk, checked against `synthesize`.
    */
  def users(data: Seq[(String, String)], tr: Tracer, walk: Option[SynthWalk.Counts])
      : (ClxSim.Outcome, FlashFillSim.Outcome, RegexReplaceSim.Outcome, Map[String, Double]) = {
    walk.foreach { c =>
      val targets = tr.span("label")(tr.span("synth.targets")(ClxSim.chooseTargets(data)))
      val root = tr.span("synth.local_hierarchy")(Synthesizer.hierarchyOf(data.map(_._1)))
      val result = tr.span("synth")(Synthesizer.synthesize(root, targets, K))
      if (SynthWalk.run(root, targets, K, tr, c) != result)
        throw new IllegalStateException("stage walk differs from Synthesizer.synthesize")
    }
    val (clx, clxS) = tr.timed("sim.clx")(ClxSim.run(data, K))
    val (ff, ffS) = tr.timed("sim.ff")(FlashFillSim.run(data))
    val (rr, rrS) = tr.timed("sim.rr")(RegexReplaceSim.run(data))
    (clx, ff, rr, Map("sim.clx" -> clxS, "sim.ff" -> ffS, "sim.rr" -> rrS))
  }

  /** `ClxSim.run` minus its targets, hierarchy and synthesis calls, as
    * timed one by one by [[users]] on the same data.
    */
  def repairSeconds(tr: Tracer, unit: Int): Double =
    tr.seconds(unit, "sim.clx") - tr.seconds(unit, "synth.targets") -
      tr.seconds(unit, "synth.local_hierarchy") - tr.seconds(unit, "synth")

  private def traced(t: Task, tr: Tracer, walk: SynthWalk.Counts): TaskRun = {
    val inputs = t.data.map(_._1)
    val ((leaves, root), cluster) = tr.timed("cluster") {
      val leaves = tr.span("cluster.leaf")(Synthesizer.leafClusters(inputs))
      (leaves, tr.span("cluster.hierarchy")(Hierarchy.root(Hierarchy.build(leaves.toSeq))))
    }
    val (clx, ff, rr, seconds) = users(t.data, tr, Some(walk))
    val prog = clx.program
    val outs = tr.span("apply")(inputs.map(prog.applyFlagged))
    val replaces = RegexExplain.explainProgram(prog).map(r => (JPattern.compile(r.regex), r.javaReplacement))
    val viaRegex = tr.span("apply.regex")(inputs.map { s =>
      if (prog.targets.exists(_.matches(s))) s
      else replaces.foldLeft(s) { case (acc, (re, repl)) => re.matcher(acc).replaceAll(repl) }
    })
    val outPatterns = tr.span("verify")(outs.collect { case (o, true) => Tokenizer.tokenize(o) }.distinct)
    TaskRun(t, clx, ff, rr, seconds + ("cluster" -> cluster), Map(
      "cluster.leaf_patterns" -> leaves.size,
      "cluster.hierarchy_nodes" -> root.preOrder.size,
      "apply.flagged_rows" -> outs.count(!_._2),
      "apply.regex_mismatches" -> outs.map(_._1).zip(viaRegex).count { case (u, r) => u != r },
      "verify.output_patterns" -> outPatterns.size,
    ))
  }

  private def gates(r: TaskRun): Vector[String] = {
    val id = r.task.id
    Vector(
      Option.when(r.clx.perfect == ClxFailures(id))(
        s"$id: CLX perfect=${r.clx.perfect}, Table 7 pins ${!ClxFailures(id)}"),
      Option.when(!r.ff.perfect)(s"$id: FlashFill is not perfect"),
      Option.when(!r.rr.perfect)(s"$id: RegexReplace is not perfect"),
    ).flatten
  }

  private def summarize(a: Args, tasks: Vector[Task], passes: Vector[Vector[Either[String, TaskRun]]],
                        walks: Vector[SynthWalk.Counts], tr: Tracer, setups: Seq[Double]): Outcome = {
    val runs = passes.flatten
    val ok = runs.collect { case Right(r) => r }
    val failures = runs.collect { case Left(e) => e } ++ ok.flatMap(gates)
    val failed = runs.count(_.isLeft) + ok.count(r => gates(r).nonEmpty)

    // A task's latency is its median over all its quiet runs (over all of
    // them if none was quiet), and pass-level figures are sums over the
    // tasks: one slow sample of the task that takes seconds then moves no
    // figure, and task percentiles are taken over the 47 tasks rather than
    // over repeats of the same task.
    val byTask = ok.groupBy(_.task.id).values.toVector.map(rs => if (rs.exists(_.quiet)) rs.filter(_.quiet) else rs)
    def perTask(f: TaskRun => Double): Vector[Double] = byTask.map(rs => Stats.median(rs.map(f)))
    val clxMs = perTask(_.seconds("sim.clx") * 1000)
    /** A pass of the three users with every task at quantile `q` of its runs. */
    def passMs(q: Double): Double = byTask.map(rs => Stats.quantile(rs.map(_.users), q)).sum * 1000
    val corpusS = passMs(0.5) / 1000
    val passS = passes.map(_.collect { case Right(r) => r.users }.sum)
    val records = tasks.map(_.size).sum

    val endToEnd = Vector(
      Metric("setup_s", Stats.median(setups), "s"),
      Metric("peak_rss_mb", Main.peakRssMb, "MB"),
      Metric("rows_per_s", records / corpusS, "rows/s"),
      Metric("clusters_s", perTask(_.seconds("cluster")).sum, "s"),
      Metric("verified_s", clxMs.sum / 1000, "s"),
      Metric("pipeline_ms_p50", passMs(0.5), "ms"),
      Metric("corpus_s", corpusS, "s"),
    )
    // Too unsteady from run to run on a shared machine to carry a bound,
    // so these print with the traced run's per-layer metrics.
    val tail = Vector(
      Metric("pipeline_ms_p90", passMs(0.9), "ms"),
      Metric("task_ms_p50", Stats.median(clxMs), "ms"),
      Metric("task_ms_p90", Stats.quantile(clxMs, 0.9), "ms"),
    )

    val metrics = if (!a.trace) endToEnd else tail ++ {
      // Per-layer numbers are sums over one pass; the median pass reports.
      val u = passes.indices.sortBy(passS).apply(passes.size / 2)
      def s(name: String): Double = tr.seconds(u, name)
      def cpu(name: String): Double = tr.cpuSeconds(u, name)
      val pass = passes(u).collect { case Right(r) => r }
      def total(f: TaskRun => Int): Double = pass.map(f).sum.toDouble
      def count(name: String): Metric = Metric(name, total(_.counts(name)), "count")
      Vector(
        Metric("cluster.leaf_s", s("cluster.leaf"), "s"),
        Metric("cluster.hierarchy_s", s("cluster.hierarchy"), "s"),
        Metric("cluster.spark_jobs", 0, "count"),
        Metric("cluster.spark_tasks", 0, "count"),
        Metric("cluster.shuffle_write_mb", 0, "MB"),
        Metric("cluster.executor_cpu_s", cpu("cluster"), "s"),
        count("cluster.leaf_patterns"),
        count("cluster.hierarchy_nodes"),
        Metric("label_s", s("label"), "s"),
        Metric("label.spark_jobs", 0, "count"),
        Metric("synth_s", s("synth"), "s"),
        Metric("synth.branches", total(_.clx.program.branches.size), "count"),
        Metric("synth.noise_patterns", total(_.clx.noisePatterns), "count"),
        Metric("synth.targets_s", s("synth.targets"), "s"),
        Metric("synth.local_hierarchy_s", s("synth.local_hierarchy"), "s"),
      ) ++ SynthWalk.metrics(tr, u, walks(u)) ++ Vector(
        Metric("apply_s", s("apply"), "s"),
        Metric("apply.regex_s", s("apply.regex"), "s"),
        Metric("apply.spark_jobs", 0, "count"),
        Metric("apply.executor_cpu_s", cpu("apply"), "s"),
        count("apply.flagged_rows"),
        count("apply.regex_mismatches"),
        Metric("verify_s", s("verify"), "s"),
        Metric("verify.spark_jobs", 0, "count"),
        Metric("verify.shuffle_write_mb", 0, "MB"),
        count("verify.output_patterns"),
        Metric("sim.clx_s", s("sim.clx"), "s"),
        Metric("sim.ff_s", s("sim.ff"), "s"),
        Metric("sim.rr_s", s("sim.rr"), "s"),
        Metric("sim.repair_s", repairSeconds(tr, u), "s"),
        Metric("sim.clx_steps_total", total(_.clx.steps), "count"),
        Metric("sim.ff_steps_total", total(_.ff.steps), "count"),
        Metric("sim.rr_steps_total", total(_.rr.steps), "count"),
        Metric("jvm.gc_s", tr.gcMillis / 1000.0, "s"),
        Metric("jvm.gc_count", tr.gcCount.toDouble, "count"),
        Metric("trace.pipeline_s", passS(u), "s"),
        Metric("trace.span_coverage", passS(u) / s("pass"), "ratio"),
      )
    }

    val summary = Comparison.Summary(ok.take(tasks.size).map(r => Comparison.TaskResult(r.task, r.clx, r.ff, r.rr)))
    val detail = Vector(
      "tasks" -> tasks.size,
      "passes" -> passes.size,
      "max_steal" -> Host.MaxSteal,
      "quiet_runs" -> ok.count(_.quiet),
      "task_steal" -> ok.groupBy(_.task.id).toVector.sortBy(_._1).map { case (id, rs) => id -> rs.map(_.steal) },
      "setup_s" -> setups,
      "pass_s" -> passS,
      "table7" -> Vector(
        "vs_flashfill" -> summary.vsFlashFill.toString,
        "vs_regexreplace" -> summary.vsRegexReplace.toString,
        "clx_perfect" -> summary.clxPerfect,
        "ff_perfect" -> summary.ffPerfect,
        "rr_perfect" -> summary.rrPerfect,
        "clx_steps_total" -> summary.results.map(_.clxSteps).sum,
        "ff_steps_total" -> summary.results.map(_.ffSteps).sum,
        "rr_steps_total" -> summary.results.map(_.rrSteps).sum,
      ),
      "task_ms" -> byTask.map(rs => rs.head.task.id -> Seq("sim.clx", "sim.ff", "sim.rr", "cluster").map(n =>
        n -> rs.map(_.seconds(n) * 1000))),
    )
    Outcome(runs.size, failed, failures, metrics, detail)
  }
}
