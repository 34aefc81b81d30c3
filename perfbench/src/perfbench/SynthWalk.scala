package perfbench

import scala.collection.mutable

import repro.core._
import repro.core.Hierarchy.PNode
import repro.core.UniFi.Plan

/** Algorithm 2 walked through the public functions `Synthesizer.synthesize`
  * calls, with a span around each stage: `Validate.validateAt`,
  * `Alignment.align` (plus `isFeasible`), `Dag.allPlans`, `Mdl.rank` and
  * `Dedup.dedup`.
  *
  * The walk returns the same `Synthesizer.Result` as `synthesize`; the
  * caller checks that it does, so the per-stage numbers cannot drift from
  * the real program. One deliberate difference: `synthesize` evaluates
  * `validateAt` twice per (node, target) pair, the walk once.
  */
object SynthWalk {

  /** `Dag.allPlans`'s default cap: a result this long may be truncated. */
  val PlanCap = 50000

  final class Counts {
    var validateAccepts = 0L
    var validateRejects = 0L
    var dagEdges = 0L
    var feasible = 0L
    var enumerated = 0L
    var truncated = 0L
    var kept = 0L
  }

  def run(root: PNode, targets: Seq[Pattern], k: Int, tr: Tracer, c: Counts): Synthesizer.Result = {
    val targetSet = targets.toSet
    val solutions = Vector.newBuilder[Synthesizer.SourceSolution]
    val noise = Vector.newBuilder[Pattern]
    val queue = mutable.Queue[PNode](root)

    def plansFor(p: Pattern, t: Pattern): Vector[Plan] = {
      val (dag, feasible) = tr.span("synth.align") {
        val d = Alignment.align(t, p)
        (d, d.isFeasible)
      }
      c.dagEdges += dag.edges.valuesIterator.map(_.size).sum
      if (!feasible) Vector.empty
      else {
        c.feasible += 1
        val all = tr.span("synth.enumerate")(dag.allPlans())
        c.enumerated += all.size
        if (all.size >= PlanCap) c.truncated += 1
        val ranked = tr.span("synth.rank")(Mdl.rank(all, p.size))
        tr.span("synth.dedup")(Dedup.dedup(ranked, p, maxKeep = k))
      }
    }

    while (queue.nonEmpty) {
      val node = queue.dequeue()
      val p = node.pattern
      if (p.isEmpty) queue.enqueueAll(node.children)
      else if (targetSet.contains(p)) ()
      else {
        val valid = tr.span("synth.validate")(targets.filter(t => Validate.validateAt(p, t, node.isLeaf)))
        c.validateAccepts += valid.size
        c.validateRejects += targets.size - valid.size
        val plans =
          if (valid.isEmpty) Vector.empty[Plan]
          else {
            val all = valid.flatMap(t => plansFor(p, t))
            val ranked = tr.span("synth.rank")(Mdl.rank(all, p.size))
            tr.span("synth.dedup")(Dedup.dedup(ranked, p, maxKeep = k))
          }
        if (plans.nonEmpty) {
          c.kept += plans.size
          solutions += Synthesizer.SourceSolution(p, plans)
        } else if (node.isLeaf) noise += p
        else queue.enqueueAll(node.children)
      }
    }
    Synthesizer.Result(solutions.result(), noise.result())
  }

  /** Per-layer metrics of the synthesis stages, from one unit's spans. */
  def metrics(tr: Tracer, unit: Int, c: Counts): Vector[Metric] = Vector(
    Metric("synth.validate_s", tr.seconds(unit, "synth.validate"), "s"),
    Metric("synth.validate_accepts", c.validateAccepts.toDouble, "count"),
    Metric("synth.validate_rejects", c.validateRejects.toDouble, "count"),
    Metric("synth.align_s", tr.seconds(unit, "synth.align"), "s"),
    Metric("synth.dag_edges", c.dagEdges.toDouble, "count"),
    Metric("synth.enumerate_s", tr.seconds(unit, "synth.enumerate"), "s"),
    Metric("synth.plans_enumerated", c.enumerated.toDouble, "count"),
    Metric("synth.alignments_feasible", c.feasible.toDouble, "count"),
    Metric("synth.alignments_truncated", c.truncated.toDouble, "count"),
    Metric("synth.rank_s", tr.seconds(unit, "synth.rank"), "s"),
    Metric("synth.dedup_s", tr.seconds(unit, "synth.dedup"), "s"),
    Metric("synth.plans_kept", c.kept.toDouble, "count"),
    Metric("synth.kept_per_enumerated", c.kept.toDouble / math.max(1L, c.enumerated), "ratio"),
  )
}
