package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval around a call into a layer of the program.
  *
  * `unit` groups the spans of one pipeline (or one corpus task) the way a
  * request id groups the spans of one request; `parent` is the enclosing
  * span's id, or -1.
  */
final case class Span(id: Int, name: String, parent: Int, unit: Int,
                      startNs: Long, endNs: Long, gcMs: Long, cpuNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spark work attributed to one span by the [[SparkWork]] listener. */
final case class SparkCounts(jobs: Int, tasks: Int, shuffleWriteBytes: Long, executorCpuNs: Long) {
  def +(o: SparkCounts): SparkCounts = SparkCounts(jobs + o.jobs, tasks + o.tasks,
    shuffleWriteBytes + o.shuffleWriteBytes, executorCpuNs + o.executorCpuNs)
}

/** In-memory span recorder.
  *
  * Spans are kept in memory and written out when the run ends. While a
  * span is open its id is set as a Spark local property, so the listener
  * can bill each job, stage and task to the span whose thread submitted it.
  * The recorder is always on (a span costs a few clock and bean reads);
  * what `--trace 1` adds is the listener and the extra per-layer calls.
  */
final class Tracer(sc: Option[SparkContext]) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private val threads = ManagementFactory.getThreadMXBean
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  var unit: Int = 0

  def gcMillis: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum
  def gcCount: Long = gcBeans.map(b => math.max(0L, b.getCollectionCount)).sum

  def span[A](name: String)(body: => A): A = timed(name)(body)._1

  /** [[span]] that also returns the span's duration in seconds. */
  def timed[A](name: String)(body: => A): (A, Double) = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    sc.foreach(_.setLocalProperty(Tracer.SpanProperty, id.toString))
    val gc0 = gcMillis
    val cpu0 = threads.getCurrentThreadCpuTime
    val t0 = System.nanoTime()
    var t1 = 0L
    try {
      val a = body
      t1 = System.nanoTime()
      (a, (t1 - t0) / 1e9)
    } finally {
      if (t1 == 0L) t1 = System.nanoTime()
      spans += Span(id, name, parent, unit, t0, t1, gcMillis - gc0, threads.getCurrentThreadCpuTime - cpu0)
      open = open.tail
      sc.foreach(_.setLocalProperty(Tracer.SpanProperty, open.headOption.map(_.toString).orNull))
    }
  }

  def all: Vector[Span] = spans.toVector

  /** Spans of `unit` named `name`, summed in seconds (0 if none). */
  def seconds(unit: Int, name: String): Double =
    spans.iterator.filter(s => s.unit == unit && s.name == name).map(_.seconds).sum

  def cpuSeconds(unit: Int, name: String): Double =
    spans.iterator.filter(s => s.unit == unit && s.name == name).map(_.cpuNs / 1e9).sum
}

object Tracer {
  val SpanProperty = "perfbench.span"
}

/** SparkListener that bills jobs, tasks, shuffle writes and executor CPU to
  * the span that was open when the job was submitted.
  */
final class SparkWork extends SparkListener {
  private val stageSpan = new ConcurrentHashMap[Int, Int]()
  private val counts = new ConcurrentHashMap[Int, SparkCounts]()

  private def spanOf(props: java.util.Properties): Option[Int] =
    Option(props).flatMap(p => Option(p.getProperty(Tracer.SpanProperty))).map(_.toInt)

  private def add(span: Int, c: SparkCounts): Unit =
    counts.merge(span, c, (a, b) => a + b)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    spanOf(e.properties).foreach { s =>
      e.stageIds.foreach(stageSpan.put(_, s))
      add(s, SparkCounts(1, 0, 0, 0))
    }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    spanOf(e.properties).foreach(stageSpan.put(e.stageInfo.stageId, _))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageSpan.get(e.stageId)).foreach { s =>
      val m = Option(e.taskMetrics)
      add(s, SparkCounts(0, 1,
        m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
        m.map(_.executorCpuTime).getOrElse(0L)))
    }

  /** Counts billed to any of `spans`. Call [[SparkWork.drain]] first. */
  def sum(spans: Iterable[Int]): SparkCounts =
    spans.flatMap(s => Option(counts.get(s))).foldLeft(SparkCounts(0, 0, 0, 0))(_ + _)
}

object SparkWork {
  /** Wait until the listener bus has delivered every posted event.
    *
    * `SparkContext.listenerBus` is package-private in Scala source but
    * public in bytecode, so it is reached by reflection.
    */
  def drain(sc: SparkContext): Unit = {
    val bus = classOf[SparkContext].getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
  }
}
