package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import UniFi.{ConstStr, Extract, Plan, StringExpr}

/** §6.3 MDL ranking (Eq. 3–6) and the paper's Example 9. */
class MdlSpec extends AnyFunSuite {

  private val e13 = Plan(Vector(Extract(1, 3)))
  private val split = Plan(Vector(Extract(1), ConstStr("/"), Extract(3)))

  test("model length of a single-op plan is zero (log2 1)") {
    assert(Mdl.modelLength(e13) == 0.0)
  }

  test("model length counts ops times log2 of distinct op types") {
    assert(Mdl.modelLength(split) == 3.0) // 3 ops, 2 types -> 3·log2(2)
  }

  test("data length of an Extract is log2 |P|^2") {
    assert(math.abs(Mdl.dataLength(e13, 5) - math.log(25) / math.log(2)) < 1e-9)
  }

  test("data length of a ConstStr is |s|·log2 95") {
    val c = Plan(Vector(ConstStr("ab")))
    assert(math.abs(Mdl.dataLength(c, 5) - 2 * math.log(95) / math.log(2)) < 1e-9)
  }

  test("paper Example 9: single combined extract beats split plan") {
    // source <D>2/<D>2/<D>4 (5 tokens), target <D>2/<D>2
    assert(Mdl.length(e13, 5) < Mdl.length(split, 5))
  }

  test("rank orders by description length ascending") {
    val ranked = Mdl.rank(Seq(split, e13), 5)
    assert(ranked.head == e13)
  }

  test("order penalty: repeats cost more than inversions") {
    val repeat = Plan(Vector(Extract(1), Extract(1)))
    val invert = Plan(Vector(Extract(3), Extract(1)))
    val forward = Plan(Vector(Extract(1), Extract(3)))
    assert(Mdl.orderPenalty(forward) == 0)
    assert(Mdl.orderPenalty(invert) == 1)
    assert(Mdl.orderPenalty(repeat) == 2)
  }

  test("rank breaks DL ties with the order penalty") {
    val forward = Plan(Vector(Extract(1), ConstStr("."), Extract(3)))
    val repeat = Plan(Vector(Extract(1), ConstStr("."), Extract(1)))
    val ranked = Mdl.rank(Seq(repeat, forward), 5)
    assert(ranked.head == forward)
  }

  test("rank is deterministic under permutation of input") {
    val plans = Seq(e13, split, Plan(Vector(Extract(3, 5))))
    assert(Mdl.rank(plans, 5) == Mdl.rank(plans.reverse, 5))
  }

  test("longer constants cost more") {
    val short = Plan(Vector(ConstStr("a")))
    val long = Plan(Vector(ConstStr("abcd")))
    assert(Mdl.length(short, 3) < Mdl.length(long, 3))
  }

  private val genExpr: Gen[StringExpr] = Gen.oneOf(
    for { i <- Gen.choose(1, 12); w <- Gen.choose(0, 3) } yield Extract(i, i + w),
    Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, Gen.oneOf('/', '-', 'a', 'Z', '\'', ' ')))
      .map(cs => ConstStr(cs.mkString)),
  )
  private val genPlan: Gen[Plan] =
    Gen.choose(0, 6).flatMap(n => Gen.listOfN(n, genExpr)).map(es => Plan(es.toVector))
  // sourceSize 1 makes every Extract cost 0, so DL ties abound
  private val genSourceSize: Gen[Int] = Gen.frequency(1 -> Gen.const(1), 3 -> Gen.choose(2, 14))

  private def check(prop: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(400), prop)
    assert(r.passed, Pretty.pretty(r, Pretty.Params(1)))
  }

  test("property: length and orderPenalty equal the reference, bit for bit") {
    check(Prop.forAll(genPlan, genSourceSize) { (p, n) =>
      Mdl.length(p, n) == MdlSpec.refLength(p, n) && Mdl.orderPenalty(p) == MdlSpec.refPenalty(p)
    })
  }

  test("property: rank equals the reference sort") {
    // repeated plans tie on all four keys
    val genPlans = for {
      ps <- Gen.choose(0, 40).flatMap(n => Gen.listOfN(n, genPlan))
      dups <- Gen.someOf(ps)
    } yield ps ++ dups
    check(Prop.forAll(genPlans, genSourceSize) { (ps, n) =>
      Mdl.rank(ps, n) == MdlSpec.refRank(ps, n)
    })
  }
}

/** The ranking as first written (map / `distinct` / `sliding`, `sortBy` on
  * the tuple key): the reference the allocation-free `Mdl` must match.
  */
object MdlSpec {
  private def log2(x: Double): Double = math.log(x) / math.log(2)

  def refLength(plan: Plan, sourceSize: Int): Double = {
    val distinctTypes = plan.exprs.map {
      case _: Extract  => "extract"
      case _: ConstStr => "conststr"
    }.distinct.size
    val model = if (plan.exprs.isEmpty) 0.0 else plan.exprs.size * log2(math.max(1, distinctTypes))
    val data = plan.exprs.map {
      case _: Extract  => log2(math.max(1, sourceSize.toDouble * sourceSize))
      case ConstStr(s) => s.length * log2(95.0)
    }.sum
    model + data
  }

  def refPenalty(plan: Plan): Int = {
    val ex = plan.exprs.collect { case e: Extract => e }
    ex.sliding(2).collect { case Seq(a, b) =>
      if (a == b) 2 else if (b.i <= a.j) 1 else 0
    }.sum
  }

  def refRank(plans: Seq[Plan], sourceSize: Int): Vector[Plan] =
    plans.toVector.sortBy(p => (refLength(p, sourceSize), p.exprs.size, refPenalty(p), p.render))
}
