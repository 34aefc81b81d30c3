package repro.core

import UniFi.{ConstStr, Extract, Plan, StringExpr}

/** Appendix B: equivalent-plan detection and deduplication.
  *
  * Two plans are equivalent (Definition 6.2) iff, for the given source
  * pattern, they always yield the same output. Detection:
  *   1. split every `Extract(m,n)` into singleton extracts;
  *   2. compare op-by-op; ops match when identical, or when one is an
  *      Extract of a *constant-valued* source token whose content equals
  *      the other's ConstStr.
  */
object Dedup {

  private def atomize(plan: Plan): Vector[StringExpr] =
    plan.exprs.flatMap {
      case Extract(i, j) => (i to j).map(k => Extract(k, k))
      case c             => Vector(c)
    }

  private def opsEqual(a: StringExpr, b: StringExpr, source: Pattern): Boolean =
    (a, b) match {
      case (x, y) if x == y => true
      case (Extract(i, j), ConstStr(s)) if i == j =>
        source.tokens.lift(i - 1).flatMap(_.literalValue).contains(s)
      case (ConstStr(s), Extract(i, j)) if i == j =>
        source.tokens.lift(i - 1).flatMap(_.literalValue).contains(s)
      case _ => false
    }

  /** Are `p1` and `p2` equivalent w.r.t. `source`? */
  def equivalent(p1: Plan, p2: Plan, source: Pattern): Boolean =
    equivalentAtoms(atomize(p1), atomize(p2), source)

  private def equivalentAtoms(a: Vector[StringExpr], b: Vector[StringExpr], source: Pattern): Boolean =
    a.size == b.size && a.indices.forall(k => opsEqual(a(k), b(k), source))

  /** Keep only the first (i.e. simplest, given DL-sorted input) plan of
    * each equivalence class, preserving order; stops after `maxKeep` kept
    * plans so cost is O(n·maxKeep) rather than O(n²). Each plan is
    * atomized once.
    */
  def dedup(ranked: Seq[Plan], source: Pattern, maxKeep: Int = Int.MaxValue): Vector[Plan] = {
    val kept = Vector.newBuilder[Plan]
    val keptAtoms = scala.collection.mutable.ArrayBuffer.empty[Vector[StringExpr]]
    val it = ranked.iterator
    while (it.hasNext && keptAtoms.size < maxKeep) {
      val p = it.next()
      val a = atomize(p)
      if (!keptAtoms.exists(b => equivalentAtoms(a, b, source))) { kept += p; keptAtoms += a }
    }
    kept.result()
  }
}
