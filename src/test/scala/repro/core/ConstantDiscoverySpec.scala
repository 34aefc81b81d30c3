package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import TokType._

/** §4.1 "Find Constant Tokens". */
class ConstantDiscoverySpec extends AnyFunSuite {

  test("all-equal position becomes a literal") {
    val strings = Seq("CPT115", "CPT204", "CPT987")
    val p = Tokenizer.tokenize(strings.head)
    val refined = ConstantDiscovery.discoverLocal(p, strings)
    assert(refined == Pattern.of(Token.lit("CPT"), Token(D, 3)))
  }

  test("varying position keeps its base token") {
    val strings = Seq("CPT115", "CPT204")
    val refined = ConstantDiscovery.discoverLocal(Tokenizer.tokenize("CPT115"), strings)
    assert(refined.tokens(1) == Token(D, 3))
  }

  test("the Dr. example: title tokens become constants") {
    val strings = Seq("Dr. Eran", "Dr. Kath", "Dr. Pete")
    val refined = ConstantDiscovery.discoverLocal(Tokenizer.tokenize(strings.head), strings)
    assert(refined.tokens.take(3) == Vector(Token.lit("D"), Token.lit("r"), Token.lit(".")))
  }

  test("adjacent literals are not merged (token boundaries preserved for alignment)") {
    val strings = Seq("CPT-115", "CPT-204")
    val refined = ConstantDiscovery.discoverLocal(Tokenizer.tokenize(strings.head), strings)
    assert(refined == Pattern.of(Token.lit("CPT"), Token.lit("-"), Token(D, 3)))
  }

  test("singleton cluster is left untouched (minSupport)") {
    val p = Tokenizer.tokenize("CPT115")
    assert(ConstantDiscovery.discoverLocal(p, Seq("CPT115")) == p)
  }

  test("minSupport is configurable") {
    val p = Tokenizer.tokenize("CPT115")
    val refined = ConstantDiscovery.discoverLocal(p, Seq("CPT115"), minSupport = 1)
    assert(refined.tokens.forall(_.isLiteral))
  }

  test("refined pattern still matches every member string") {
    val strings = Seq("Dr. Eran", "Dr. Kath")
    val refined = ConstantDiscovery.discoverLocal(Tokenizer.tokenize(strings.head), strings)
    strings.foreach(s => assert(refined.matches(s)))
  }

  test("mergeLiterals merges runs for display") {
    val p = Pattern.of(Token.lit("D"), Token.lit("r"), Token.lit("."), Token(L, 2))
    assert(ConstantDiscovery.mergeLiterals(p) == Pattern.of(Token.lit("Dr."), Token(L, 2)))
  }

  test("applyStats with distributed-style statistics") {
    val p = Tokenizer.tokenize("AB12")
    val stats = Seq(Some("AB"), None)
    assert(ConstantDiscovery.applyStats(p, stats, clusterSize = 5) ==
      Pattern.of(Token.lit("AB"), Token(D, 2)))
  }

  test("empty strings list is a no-op") {
    val p = Tokenizer.tokenize("abc")
    assert(ConstantDiscovery.discoverLocal(p, Nil) == p)
  }

  test("a cluster split one row per partition still gets its constants") {
    val parts = Seq(Seq("CPT115", "x"), Seq("CPT204", "y"))
    val merged = parts.map(ClusterStats.of).reduce(_ merge _)
    assert(merged.leafClusters() ==
      Map(Pattern.of(Token.lit("CPT"), Token(D, 3)) -> 2L, Pattern.of(Token(L, 1)) -> 2L))
  }

  test("ClusterStats skips null strings") {
    assert(ClusterStats.of(Seq("ab", null, "cd")).leafClusters() == Map(Pattern.of(Token(L, 2)) -> 2L))
  }

  // few characters and short strings, so patterns collide and values repeat
  private val genString: Gen[String] = Gen.frequency(
    1 -> Gen.const(""),
    8 -> Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, Gen.oneOf('0', '7', 'a', 'b', 'Q', '-', '.', ' ', 'é')))
      .map(_.mkString),
  )
  private val genStrings: Gen[Seq[String]] = for {
    ss <- Gen.choose(0, 30).flatMap(n => Gen.listOfN(n, genString))
    dups <- Gen.someOf(ss)
  } yield ss ++ dups

  private def check(prop: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(400), prop)
    assert(r.passed, Pretty.pretty(r, Pretty.Params(1)))
  }

  test("property: the fold equals groupBy(tokenize) + per-cluster discovery, for any split and merge order") {
    val genCase = for {
      ss <- genStrings
      k <- Gen.choose(1, 5)
      part <- Gen.listOfN(ss.size, Gen.choose(0, k - 1))
      keys <- Gen.listOfN(k, Gen.long)
      minSupport <- Gen.choose(1, 3)
    } yield (ss, ss.zip(part), (0 until k).sortBy(keys), minSupport)
    check(Prop.forAll(genCase) { case (ss, parted, order, minSupport) =>
      val expected = ConstantDiscoverySpec.refLeafClusters(ss, minSupport)
      val parts = order.map(i => ClusterStats.of(parted.collect { case (s, `i`) => s }))
      val merged = parts.foldLeft(new ClusterStats)(_ merge _)
      ClusterStats.of(ss).leafClusters(minSupport) == expected &&
        merged.leafClusters(minSupport) == expected &&
        Synthesizer.leafClusters(ss, constantDiscovery = false) ==
          ss.groupBy(Tokenizer.tokenize).view.mapValues(_.size.toLong).toMap
    })
  }
}

/** Clustering and constant discovery as first written: group the strings
  * by leaf pattern, then split each cluster's strings with the pattern's
  * regex and count distinct values per position. The reference the
  * [[ClusterStats]] fold must match.
  */
object ConstantDiscoverySpec {
  def refDiscover(pattern: Pattern, strings: Seq[String], minSupport: Int): Pattern = {
    val splits = strings.flatMap(pattern.split)
    if (strings.isEmpty || splits.size != strings.size || strings.size < minSupport) pattern
    else Pattern(pattern.tokens.zipWithIndex.map { case (t, i) =>
      val vals = splits.map(_(i)).distinct
      if (!t.isLiteral && vals.size == 1) Token.lit(vals.head) else t
    })
  }

  def refLeafClusters(strings: Seq[String], minSupport: Int): Map[Pattern, Long] =
    strings.groupBy(Tokenizer.tokenize).toSeq
      .map { case (p, ss) => (refDiscover(p, ss, minSupport), ss.size.toLong) }
      .groupBy(_._1).view.mapValues(_.map(_._2).sum).toMap
}
