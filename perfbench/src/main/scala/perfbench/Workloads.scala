package perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.{Sampling, Scalability}
import repro.kg.{KGBuilder, KGraph, KgIndex, MLSynth}
import repro.rec.{ExplanationPath, PathRecommender, Pgpr}

/** One summary the benchmark computes: a scenario, a method and the k the
  * scenario was built for. `id` is the task's position in the round.
  */
final case class Task(id: Int, scenario: Scenario, method: Summarizer.Method, k: Int)

/** What set-up hands to the timed phase. */
final case class Inputs(kg: KGraph, idx: KgIndex, tasks: IndexedSeq[Task], recPaths: Int)

/** A benchmark workload: its set-up (Spark, generation, KG build, index,
  * sampling, recommendations, scenarios) and whether each summary is
  * followed by its metric row.
  */
sealed trait Workload {
  def name: String
  def withMetricRows: Boolean
  def setup(spark: SparkSession, seed: Long, tr: Tracer): Inputs
}

object Workloads {
  // The program's own seeds: generator, synthetic graph, recommendations
  // and random paths. The benchmark seed only picks which users, items and
  // groups the scenarios are built from.
  val GenSeed = 7L
  val SynthSeed = 13L
  val RecSeed = 17L
  val RandomPathSeed = 5L

  val all: Seq[Workload] = Seq(Sweep, Groups, RandomGraph)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  private val StLambdas = Seq(0.01, 1.0, 100.0)

  /** One random member of each of `n` equal contiguous strata of `xs`, so
    * every seed draws the same mix of heavy and light raters (or popular
    * and unpopular items).
    */
  def stratified[A](xs: Seq[A], n: Int, rng: scala.util.Random): Seq[A] = {
    require(xs.length >= n, s"need $n candidates, have ${xs.length}")
    (0 until n).map { i =>
      val lo = i * xs.length / n
      val hi = (i + 1) * xs.length / n
      xs(lo + rng.nextInt(hi - lo))
    }
  }

  private def ml1mGraph(spark: SparkSession, tr: Tracer): (KGraph, KgIndex) = {
    val kg = tr.span("kg.build")(KGBuilder.build(spark, MLSynth.ml1m(spark, 0.3, GenSeed)))
    val idx = tr.span("kg.index")(KgIndex.fromKGraph(kg))
    (kg, idx)
  }

  private def pgpr(spark: SparkSession, idx: KgIndex, users: Seq[Long],
                   tr: Tracer): Map[Long, Seq[ExplanationPath]] = tr.span("rec.recommend") {
    val sc = spark.sparkContext
    val kgB = sc.broadcast(idx)
    try PathRecommender.recommendBatch(sc, kgB, new Pgpr, users, 10, RecSeed)
    finally kgB.destroy()
  }

  /** Explanation paths of `pool` at rank ≤ k, grouped by item, at most
    * `perItem` users each, in user order (the harness's C_i).
    */
  private def audiences(top: Map[Long, Seq[ExplanationPath]], k: Int,
                        perItem: Int): Map[Long, Seq[ExplanationPath]] =
    top.toSeq.sortBy(_._1)
      .flatMap { case (_, ps) => ps.filter(_.rank <= k) }
      .groupBy(_.item)
      .map { case (i, ps) => i -> ps.take(perItem) }

  /** Items recommended to at least two pool users, most-recommended first. */
  private def rankedItems(top: Map[Long, Seq[ExplanationPath]]): Seq[Long] =
    audiences(top, 10, Int.MaxValue).toSeq
      .filter(_._2.size >= 2)
      .sortBy { case (i, ps) => (-ps.size, i) }
      .map(_._1)

  private def tasksOf(scenarios: Seq[(Int, Scenario)],
                      methods: Seq[Summarizer.Method]): IndexedSeq[Task] =
    (for ((k, s) <- scenarios; m <- methods) yield (s, m, k)).toIndexedSeq
      .zipWithIndex.map { case ((s, m, k), i) => Task(i, s, m, k) }

  /** Figs 2–8 grid on ML1M-sim: user- and item-centric scenarios at
    * several k, every method, each summary followed by its metric row.
    */
  object Sweep extends Workload {
    val name = "sweep"
    val withMetricRows = true
    // An odd number of k values puts the ST median inside the middle k's
    // cluster of user-centric summaries rather than in the gap between two.
    // Item audiences are capped at 10 users, so item-centric summaries
    // (|T| ≤ 11) are no larger than user-centric ones at k = 10: with the
    // harness's 25, the few largest item-centric summaries formed a mode of
    // their own and the tail percentiles fell on its edge.
    val KSet = Seq(1, 5, 10)
    val UsersPerGender = 8
    val Items = 3
    val PopularItems = 12
    val SpreadPool = 200
    val MaxUsersPerItem = 10

    def setup(spark: SparkSession, seed: Long, tr: Tracer): Inputs = {
      val rng = new scala.util.Random(seed)
      val (kg, idx) = ml1mGraph(spark, tr)
      val (males, females) = tr.span("eval.sample")(Sampling.sampleUsers(kg, 100))
      val users = stratified(males, UsersPerGender, rng) ++ stratified(females, UsersPerGender, rng)
      val pool = (users ++ Sampling.spreadUsers(kg.nUsers, SpreadPool)).distinct
      val top = pgpr(spark, idx, pool, tr)
      val scenarios = tr.span("eval.scenarios") {
        val items = stratified(rankedItems(top).take(PopularItems), Items, rng)
        KSet.flatMap { k =>
          val byItem = audiences(top, k, MaxUsersPerItem)
          users.flatMap { u =>
            val ps = top.getOrElse(u, Seq.empty).take(k)
            if (ps.isEmpty) None else Some(k -> UserCentric(u, ps))
          } ++ items.flatMap(i => byItem.get(i).map(ps => k -> ItemCentric(i, ps)))
        }
      }
      val methods = Summarizer.Paths +: StLambdas.map(Summarizer.ST) :+ Summarizer.PCST()
      Inputs(kg, idx, tasksOf(scenarios, methods), top.valuesIterator.map(_.size).sum)
    }
  }

  /** Fig 10 on ML1M-sim: disjoint user groups of 5–80 users and two item
    * groups of popular items, at k = 10, with ST λ = 1 and PCST. Three
    * groups of 20 hold the middle of the ST latency distribution, so its
    * median does not hinge on one group's terminal count.
    */
  object Groups extends Workload {
    val name = "groups"
    val withMetricRows = false
    val GroupSizes = Seq(5, 10, 20, 20, 20, 80)
    val ItemGroupSize = 5
    val PopularItems = 20
    val MaxUsersPerItem = 25

    def setup(spark: SparkSession, seed: Long, tr: Tracer): Inputs = {
      val rng = new scala.util.Random(seed)
      val (kg, idx) = ml1mGraph(spark, tr)
      val (males, females) = tr.span("eval.sample")(Sampling.sampleUsers(kg, 100))
      val members = rng.shuffle(males ++ females).take(GroupSizes.sum)
      val top = pgpr(spark, idx, members, tr)
      val scenarios = tr.span("eval.scenarios") {
        val starts = GroupSizes.scanLeft(0)(_ + _)
        val userGroups = GroupSizes.zip(starts).zipWithIndex.map { case ((size, from), i) =>
          val g = members.slice(from, from + size)
          UserGroup(s"u$i-$size", g, g.flatMap(u => top.getOrElse(u, Seq.empty)))
        }
        val popular = rng.shuffle(rankedItems(top).take(PopularItems))
        val byItem = audiences(top, 10, MaxUsersPerItem)
        val itemGroups = Seq("a", "b").zipWithIndex.map { case (tag, i) =>
          val items = popular.slice(i * ItemGroupSize, (i + 1) * ItemGroupSize)
          ItemGroup(tag, items, items.flatMap(byItem(_)))
        }
        (userGroups ++ itemGroups).map(10 -> _)
      }
      Inputs(kg, idx, tasksOf(scenarios, Seq(Summarizer.ST(1.0), Summarizer.PCST())),
        top.valuesIterator.map(_.size).sum)
    }
  }

  /** Fig 11 on the 10k-node Table III random graph: PEARLM random 3-hop
    * paths, user-centric k = 10 scenarios and one small user group, with
    * ST λ = 1 and PCST.
    */
  object RandomGraph extends Workload {
    val name = "randomgraph"
    val withMetricRows = false
    val Nodes = 10000
    val UserCentricUsers = 10
    val GroupSize = 3

    def setup(spark: SparkSession, seed: Long, tr: Tracer): Inputs = {
      val rng = new scala.util.Random(seed)
      val kg = tr.span("kg.build")(KGBuilder.build(spark, MLSynth.synthetic(spark, Nodes, SynthSeed)))
      val idx = tr.span("kg.index")(KgIndex.fromKGraph(kg))
      val users = tr.span("eval.sample") {
        stratified(Sampling.spreadUsers(kg.nUsers, 500), UserCentricUsers + GroupSize, rng)
      }
      val top = tr.span("rec.recommend")(Scalability.randomPaths(spark, idx, users, 10, RandomPathSeed))
      val scenarios = tr.span("eval.scenarios") {
        val uc = users.take(UserCentricUsers).sorted.flatMap(u => Scalability.kScenarios(top, u, Seq(10)))
        val groupTop = users.drop(UserCentricUsers).flatMap(u => top.get(u).map(u -> _)).toMap
        uc ++ Scalability.groupScenarios(groupTop, Seq(GroupSize), 10)
      }.map { case (s, _, k) => k -> s }
      Inputs(kg, idx, tasksOf(scenarios, Seq(Summarizer.ST(1.0), Summarizer.PCST())),
        top.valuesIterator.map(_.size).sum)
    }
  }
}
