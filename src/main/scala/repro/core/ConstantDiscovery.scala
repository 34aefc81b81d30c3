package repro.core

import scala.collection.mutable

/** §4.1 "Find Constant Tokens".
  *
  * Within a pattern cluster, a token position whose underlying substring is
  * identical across every member string is re-labeled as a literal token
  * with that value (e.g. `<U>3` → `'CPT'`).
  *
  * Adjacent literals are deliberately NOT merged into one token (the
  * paper's `'Dr.'` display): merging `'CPT'` with a neighboring `'-'`
  * would destroy the token boundary that alignment needs to extract the
  * `'CPT'` part into a `<U>+` target token. `mergeLiterals` remains
  * available for display purposes.
  *
  * A minimum cluster support (default 2) prevents a singleton cluster from
  * degenerating into one all-literal pattern.
  */
object ConstantDiscovery {

  /** Rewrite `pattern` given, per position, `Some(v)` when every member of
    * the cluster has value `v` there (`None` when the values vary), and the
    * cluster size. The statistics come from a [[ClusterStats]] fold.
    */
  def applyStats(pattern: Pattern, constants: Seq[Option[String]], clusterSize: Long,
                 minSupport: Int = 2): Pattern =
    if (clusterSize < minSupport) pattern
    else Pattern(pattern.tokens.lazyZip(constants).map {
      case (t, Some(v)) if !t.isLiteral => Token.lit(v)
      case (t, _)                       => t
    })

  /** Local constant discovery over one cluster's strings. Unless every
    * string tokenizes to the leaf pattern `pattern`, `pattern` is returned.
    */
  def discoverLocal(pattern: Pattern, strings: Seq[String], minSupport: Int = 2): Pattern =
    ClusterStats.of(strings).leaves.get(pattern) match {
      case Some((n, constants)) if n == strings.size => applyStats(pattern, constants, n, minSupport)
      case _                                         => pattern
    }

  /** Merge runs of adjacent literal tokens into a single literal token. */
  def mergeLiterals(p: Pattern): Pattern = {
    val out = Vector.newBuilder[Token]
    var buf = new StringBuilder
    def flush(): Unit = if (buf.nonEmpty) { out += Token.lit(buf.toString); buf = new StringBuilder }
    p.tokens.foreach {
      case Token(TokType.Lit(v), _) => buf.append(v)
      case t                        => flush(); out += t
    }
    flush()
    Pattern(out.result())
  }
}

/** §4.1 clustering and constant discovery as one commutative fold: per
  * leaf pattern, the string count and, per token position, the value every
  * string has there, or `null` once two differ. Each string is tokenized
  * once; `null` strings are skipped. `add` and `merge` commute, so the fold
  * runs over a local `Seq` (`of`) or per Spark partition with the partials
  * merged in any order (`repro.dist.PatternClusteringSpark`); `minSupport`
  * applies to the merged count only.
  */
final class ClusterStats extends Serializable {
  private val stats = mutable.HashMap.empty[Pattern, ClusterStats.Leaf]

  def add(s: String): this.type = {
    if (s != null) Tokenizer.tokenizeWithValues(s) match { case (p, values) => fold(p, 1, values) }
    this
  }

  def merge(that: ClusterStats): this.type = {
    that.stats.foreach { case (p, l) => fold(p, l.count, l.values) }
    this
  }

  private def fold(p: Pattern, count: Long, values: collection.IndexedSeq[String]): Unit =
    stats.get(p) match {
      case None => stats(p) = new ClusterStats.Leaf(count, values.toArray)
      case Some(l) =>
        l.count += count
        for (i <- values.indices if l.values(i) != values(i)) l.values(i) = null
    }

  /** Leaf pattern → (count, per position `Some(v)` if every string has `v` there). */
  def leaves: Map[Pattern, (Long, Seq[Option[String]])] =
    stats.view.mapValues(l => (l.count, l.values.toSeq.map(Option(_)))).toMap

  /** Constant-discovered pattern → count; leaves refined alike are merged. */
  def leafClusters(minSupport: Int = 2): Map[Pattern, Long] =
    leaves.toSeq.groupMapReduce { case (p, (n, cs)) =>
      ConstantDiscovery.applyStats(p, cs, n, minSupport) }(_._2._1)(_ + _)
}

object ClusterStats {
  private final class Leaf(var count: Long, val values: Array[String]) extends Serializable

  def of(strings: IterableOnce[String]): ClusterStats =
    strings.iterator.foldLeft(new ClusterStats)(_ add _)
}
