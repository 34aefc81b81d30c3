package repro.dist

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._

/** Distributed pattern clustering (§4) over a DataFrame string column.
  *
  * Clustering and constant discovery are one Spark job: each partition of
  * the column folds its rows into a [[ClusterStats]] (one tokenization per
  * row, null rows skipped), and the per-partition summaries — one entry
  * per distinct leaf pattern, small by construction, which is the paper's
  * whole point — are merged on the driver, where constant discovery is
  * applied to the global counts and the hierarchy (Algorithm 1) is built.
  * No token value is shuffled. The `pattern` UDF column remains for the
  * Fig. 3 listing and for output verification (`TransformSpark`).
  */
object PatternClusteringSpark {

  /** Rendered-pattern UDF column (leaf tokenization, no constants). */
  val patternUdf = udf((s: String) => if (s == null) null else Tokenizer.tokenize(s).render)

  /** Add a `pattern` column to `df` (leaf pattern of `col`). */
  def withPattern(df: DataFrame, col: String, out: String = "pattern"): DataFrame =
    df.withColumn(out, patternUdf(df(col)))

  /** Cluster listing shown for labeling (Fig. 3): pattern, count, sample. */
  def clusterCounts(df: DataFrame, col: String): DataFrame =
    withPattern(df, col)
      .groupBy("pattern")
      .agg(count(lit(1)) as "n", min(df(col)) as "sample")
      .orderBy(desc("n"), asc("pattern"))

  /** Leaf clusters with constant discovery, computed distributedly.
    *
    * Returns (refined pattern → string count). Patterns that collapse to
    * the same refined pattern are merged.
    */
  def leafClusters(df: DataFrame, col: String, minSupport: Int = 2): Map[Pattern, Long] =
    df.select(col).queryExecution.toRdd
      .aggregate(new ClusterStats)((st, r) => st.add(if (r.isNullAt(0)) null else r.getString(0)), _ merge _)
      .leafClusters(minSupport)

  /** Full clustering phase: leaf clusters → pattern cluster hierarchy. */
  def hierarchy(df: DataFrame, col: String, minSupport: Int = 2): Hierarchy.PNode =
    Hierarchy.root(Hierarchy.build(leafClusters(df, col, minSupport).toSeq))
}
