package repro.core

import UniFi.{ConstStr, Extract, Plan, StringExpr}

/** §6.3 Minimum Description Length plan ranking (Eq. 3–6).
  *
  * L(E,T)   = L(E) + L(T|E)
  * L(E)     = |E| · log₂ m          (m = #distinct operation *types* in E)
  * L(T|E)   = Σ log₂ L(fᵢ)          where
  *   L(Extract)      = |P_cand|²    (two token indices into the source)
  *   L(ConstStr(s̃))  = 95^|s̃|       (printable characters)
  *
  * Logs are base 2; log₂ 1 = 0, matching the paper's Example 9 where a
  * single-op plan contributes no model cost.
  */
object Mdl {

  private def log2(x: Double): Double = math.log(x) / math.log(2)

  private val constCharCost = log2(95.0)

  private def extractCost(sourceSize: Int): Double =
    log2(math.max(1, sourceSize.toDouble * sourceSize))

  /** Model description length L(E) (Eq. 4). */
  def modelLength(plan: Plan): Double = {
    val exprs = plan.exprs
    var extracts = false
    var consts = false
    var k = 0
    while (k < exprs.length) {
      exprs(k) match {
        case _: Extract  => extracts = true
        case _: ConstStr => consts = true
      }
      k += 1
    }
    val distinctTypes = (if (extracts) 1 else 0) + (if (consts) 1 else 0)
    if (exprs.isEmpty) 0.0 else exprs.length * log2(math.max(1, distinctTypes))
  }

  /** Data description length L(T|E) (Eq. 5), given the source pattern size. */
  def dataLength(plan: Plan, sourceSize: Int): Double =
    dataLength(plan.exprs, extractCost(sourceSize))

  /** Σ of per-op costs, left to right from 0.0. */
  private def dataLength(exprs: Vector[StringExpr], extractCost: Double): Double = {
    var sum = 0.0
    var k = 0
    while (k < exprs.length) {
      sum += (exprs(k) match {
        case _: Extract  => extractCost
        case ConstStr(s) => s.length * constCharCost
      })
      k += 1
    }
    sum
  }

  /** Total description length L(E,T) (Eq. 3). */
  def length(plan: Plan, sourceSize: Int): Double =
    modelLength(plan) + dataLength(plan, sourceSize)

  /** Occam-style tie-break among equal-DL plans: penalize plans that reuse
    * the same source range twice (2 per adjacent repeat) or jump backwards
    * in the source (1 per adjacent inversion). Equal-DL alignments are
    * otherwise arbitrary; preferring order-preserving, non-repeating
    * extractions mirrors how humans read transformations and is what makes
    * the default plan usually correct (§6.3, Appendix E). "Adjacent" means
    * consecutive among the plan's Extracts, ignoring ConstStrs between them.
    */
  def orderPenalty(plan: Plan): Int = {
    val exprs = plan.exprs
    var prev: Extract = null
    var penalty = 0
    var k = 0
    while (k < exprs.length) {
      exprs(k) match {
        case e: Extract =>
          if (prev != null) penalty += (if (prev == e) 2 else if (e.i <= prev.j) 1 else 0)
          prev = e
        case _ =>
      }
      k += 1
    }
    penalty
  }

  /** A plan with its sort keys, computed once; `render` only on demand. */
  private final class Keyed(val plan: Plan, val dl: Double, val size: Int, val penalty: Int) {
    private var rendered: String = null
    def render: String = {
      if (rendered == null) rendered = plan.render
      rendered
    }
  }

  private val keyOrder: java.util.Comparator[Keyed] = (a: Keyed, b: Keyed) => {
    var c = java.lang.Double.compare(a.dl, b.dl)
    if (c == 0) c = Integer.compare(a.size, b.size)
    if (c == 0) c = Integer.compare(a.penalty, b.penalty)
    if (c == 0) c = a.render.compareTo(b.render)
    c
  }

  /** Rank plans by the total order (L(E,T), |E|, `orderPenalty`, `render`),
    * ascending; the DL compare is `java.lang.Double.compare`. The sort is
    * stable, so plans equal on all four keys keep their input order. Each
    * plan's DL, size and penalty are computed once; its `render` only when
    * it ties another plan on the first three keys.
    */
  def rank(plans: Seq[Plan], sourceSize: Int): Vector[Plan] = {
    val ec = extractCost(sourceSize)
    val keyed = plans.iterator.map { p =>
      new Keyed(p, modelLength(p) + dataLength(p.exprs, ec), p.exprs.length, orderPenalty(p))
    }.toArray
    java.util.Arrays.sort(keyed, keyOrder)
    keyed.iterator.map(_.plan).toVector
  }
}
