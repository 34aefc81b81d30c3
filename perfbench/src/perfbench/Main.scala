package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.io.Source

import org.apache.spark.sql.SparkSession

final case class Metric(name: String, value: Double, unit: String)

/** What one run of a workload produced: the gate tally, the metrics for
  * the result line, and free-form detail for the run's JSON file.
  */
final case class Outcome(attempted: Int, failed: Int, failures: Vector[String],
                         metrics: Vector[Metric], detail: Vector[(String, Any)])

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      smoke: Boolean, outDir: Path)

/** Benchmark entry point; `perfbench/run.py` builds the classes and starts
  * this JVM. Prints a run-record line, then the result line last.
  */
object Main {

  val Workloads: Map[String, Args => Outcome] = Map(
    "phones-1m" -> Phones.run,
    "corpus-47" -> Corpus.run,
  )

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList)
    val t0 = System.nanoTime()
    val cpu0 = Host.cpu()
    val outcome = Workloads(args.workload)(args)
    val record = runRecord(args) ++ Vector("wall_s" -> (System.nanoTime() - t0) / 1e9,
      "host_steal" -> Host.stealShare(cpu0, Host.cpu()))
    outcome.metrics.foreach(m => require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} = ${m.value}"))
    val correct = outcome.failed == 0
    val result = Vector(
      "correct" -> correct,
      "attempted" -> outcome.attempted,
      "failed" -> outcome.failed,
      "metrics" -> outcome.metrics.map(m => m.name -> Vector("value" -> m.value, "unit" -> m.unit)),
    )
    val file = args.outDir.resolve(
      s"${args.workload}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
    Files.createDirectories(args.outDir)
    Files.write(file, Json.write(Vector("run" -> record, "result" -> result,
      "failures" -> outcome.failures) ++ outcome.detail).getBytes(StandardCharsets.UTF_8))
    outcome.failures.take(20).foreach(f => Console.err.println(s"[perfbench] FAILED: $f"))
    println(Json.write(Vector("run" -> record, "detail_file" -> file.toString)))
    println(Json.write(result))
    Console.out.flush()
    sys.exit(if (correct) 0 else 1)
  }

  private def parse(argv: List[String]): Args = {
    def go(rest: List[String], acc: Map[String, String]): Map[String, String] = rest match {
      case "--smoke" :: tail => go(tail, acc + ("smoke" -> "1"))
      case k :: v :: tail if k.startsWith("--") => go(tail, acc + (k.drop(2) -> v))
      case Nil => acc
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }
    val m = go(argv, Map.empty)
    val workload = m.getOrElse("workload", "")
    require(Workloads.contains(workload), s"--workload must be one of ${Workloads.keys.toSeq.sorted.mkString(", ")}")
    Args(workload, m("seed").toLong, m("seconds").toDouble, m.getOrElse("trace", "0") == "1",
         m.contains("smoke"), Paths.get(m.getOrElse("out", ".bench_build/perfbench/results")))
  }

  val nproc: Int = Runtime.getRuntime.availableProcessors
  val master = s"local[$nproc]"
  val ShufflePartitions = 64

  /** A fresh local SparkSession configured as the repo's jobs are, with
    * every scratch directory kept under `.bench_build`.
    */
  def newSession(): SparkSession = {
    val scratch = Paths.get(".bench_build", "spark").toAbsolutePath
    Files.createDirectories(scratch)
    val s = SparkSession.builder()
      .master(master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", scratch.resolve("local").toString)
      .config("spark.sql.warehouse.dir", scratch.resolve("warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Peak resident set of this JVM (VmHWM), in MB. */
  def peakRssMb: Double = {
    val src = Source.fromFile("/proc/self/status")
    try src.getLines().collectFirst {
      case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024
    }.get
    finally src.close()
  }

  private def runRecord(a: Args): Vector[(String, Any)] = {
    val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.map(_.toString)
    Vector(
      "workload" -> a.workload,
      "seed" -> a.seed,
      "seconds" -> a.seconds,
      "trace" -> a.trace,
      "smoke" -> a.smoke,
      "nproc" -> nproc,
      "driver_xmx" -> jvmArgs.find(_.startsWith("-Xmx")).map(_.drop(4)).getOrElse("default"),
      "heap_options" -> jvmArgs.filter(_.startsWith("-Xm")).mkString(" "),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576.0,
      "spark_master" -> master,
      "shuffle_partitions" -> ShufflePartitions,
      "spark_version" -> org.apache.spark.SPARK_VERSION,
      "jdk_version" -> System.getProperty("java.version"),
      "scala_version" -> scala.util.Properties.versionNumberString,
    )
  }
}

/** CPU time the hypervisor gave to other guests while this one was ready
  * to run ("steal", the eighth field of the `cpu` line of /proc/stat).
  *
  * On a shared host, steal comes in bursts, and it slows Spark work far
  * more than its share: a job waits for every one of its tasks and
  * hand-offs between threads, and any of them can sit on a descheduled
  * CPU (on 4 CPUs, 15% steal made 3,000-row pipelines 1.7 times slower).
  * Such an interval measures the neighbours, not the program, so the
  * timing metrics are taken over the pipelines and corpus tasks during
  * which steal stayed under [[Host.MaxSteal]] when there are enough of them.
  */
object Host {
  /** Jiffies since boot: stolen, and all states together. */
  final case class Cpu(steal: Long, total: Long)

  /** Largest share of CPU time stolen during a measured interval that
    * still counts the interval as quiet.
    */
  val MaxSteal = 0.03

  /** Zeros where /proc/stat cannot be read: every interval then counts as quiet. */
  def cpu(): Cpu =
    try {
      val src = Source.fromFile("/proc/stat")
      val fields = try src.getLines().next().trim.split("\\s+").drop(1).take(8).map(_.toLong) finally src.close()
      Cpu(if (fields.length > 7) fields(7) else 0L, fields.sum)
    } catch { case _: java.io.IOException => Cpu(0L, 0L) }

  def stealShare(from: Cpu, to: Cpu): Double =
    if (to.total > from.total) (to.steal - from.steal).toDouble / (to.total - from.total) else 0.0

  /** `body` and the share of CPU time stolen while it ran. */
  def measured[A](body: => A): (A, Double) = {
    val c0 = cpu()
    val a = body
    (a, stealShare(c0, cpu()))
  }
}

/** Order statistics over samples, as reported in the result line. */
object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile (numpy's default). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}

/** Minimal JSON writer for the result line and the run file. */
object Json {
  def write(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => java.lang.Double.toString(d)
    case kv: Seq[_] if kv.forall { case (_: String, _) => true; case _ => false } && kv.nonEmpty =>
      kv.map { case (k: String, x) => quote(k) + ":" + write(x) }.mkString("{", ",", "}")
    case xs: Seq[_] => xs.map(write).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }
}
