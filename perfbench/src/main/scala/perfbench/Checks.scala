package perfbench

import repro.core.{Scenario, Subgraph, Summarizer}
import repro.eval.Harness
import scala.collection.mutable.ArrayBuffer

/** Union–find over 0..n−1, written for the checks so that they share no
  * code with the program under test.
  */
final class UnionFind(n: Int) {
  private val parent = Array.tabulate(n)(identity)

  def find(x: Int): Int = {
    var r = x
    while (parent(r) != r) r = parent(r)
    var c = x
    while (parent(c) != r) { val next = parent(c); parent(c) = r; c = next }
    r
  }

  /** Join the sets of `a` and `b`; false if they were already one set. */
  def union(a: Int, b: Int): Boolean = {
    val ra = find(a); val rb = find(b)
    if (ra == rb) false else { parent(math.max(ra, rb)) = math.min(ra, rb); true }
  }
}

/** The knowledge graph as collected from the `kg.edges` DataFrame: an
  * undirected adjacency over node ids, with each unordered pair's base
  * weight w_M and the KG component of every node.
  */
final class RefGraph(src: Array[Long], dst: Array[Long], val weight: Array[Double]) {
  val ids: Array[Long] = (src ++ dst).distinct.sorted
  val numEdges: Int = src.length
  val edgeA: Array[Int] = src.map(index)
  val edgeB: Array[Int] = dst.map(index)

  private val pairToEdge: java.util.HashMap[java.lang.Long, Integer] = {
    val m = new java.util.HashMap[java.lang.Long, Integer](numEdges * 2)
    var e = 0
    while (e < numEdges) { m.putIfAbsent(pairKey(src(e), dst(e)), e); e += 1 }
    m
  }

  /** Undirected CSR: arcs of vertex v are offsets(v) until offsets(v + 1). */
  val (offsets, arcTo, arcEdge) = {
    val n = ids.length
    val off = new Array[Int](n + 1)
    edgeA.foreach(a => off(a + 1) += 1)
    edgeB.foreach(b => off(b + 1) += 1)
    for (v <- 0 until n) off(v + 1) += off(v)
    val cur = off.clone()
    val to = new Array[Int](2 * numEdges); val ed = new Array[Int](2 * numEdges)
    for (e <- 0 until numEdges) {
      to(cur(edgeA(e))) = edgeB(e); ed(cur(edgeA(e))) = e; cur(edgeA(e)) += 1
      to(cur(edgeB(e))) = edgeA(e); ed(cur(edgeB(e))) = e; cur(edgeB(e)) += 1
    }
    (off, to, ed)
  }

  /** KG component root of every vertex. */
  val component: Array[Int] = {
    val uf = new UnionFind(ids.length)
    for (e <- 0 until numEdges) uf.union(edgeA(e), edgeB(e))
    Array.tabulate(ids.length)(uf.find)
  }

  val maxWeight: Double = if (numEdges == 0) 0.0 else weight.max

  def contains(id: Long): Boolean = java.util.Arrays.binarySearch(ids, id) >= 0
  def index(id: Long): Int = java.util.Arrays.binarySearch(ids, id)

  /** Edge between two node ids in either direction, or −1. */
  def edge(a: Long, b: Long): Int = {
    val e = pairToEdge.get(pairKey(a, b))
    if (e == null) -1 else e.intValue()
  }

  private def pairKey(a: Long, b: Long): java.lang.Long = {
    val lo = math.min(a, b); val hi = math.max(a, b)
    (lo << 32) | hi
  }

  /** Distances from `source` under `cost` (per edge), stopping once every
    * vertex in `targets` is settled. Binary heap with lazy deletion.
    */
  def dijkstra(source: Int, cost: Array[Double], targets: Array[Int]): Array[Double] = {
    val n = ids.length
    val dist = Array.fill(n)(Double.PositiveInfinity)
    val done = new Array[Boolean](n)
    val isTarget = new Array[Boolean](n)
    var left = 0
    targets.foreach(t => if (!isTarget(t)) { isTarget(t) = true; left += 1 })
    var hd = new Array[Double](64); var hv = new Array[Int](64); var size = 0
    def push(d: Double, v: Int): Unit = {
      if (size == hd.length) {
        hd = java.util.Arrays.copyOf(hd, size * 2); hv = java.util.Arrays.copyOf(hv, size * 2)
      }
      var i = size; size += 1
      while (i > 0 && hd((i - 1) / 2) > d) {
        val p = (i - 1) / 2; hd(i) = hd(p); hv(i) = hv(p); i = p
      }
      hd(i) = d; hv(i) = v
    }
    def pop(): Unit = {
      size -= 1
      val d = hd(size); val v = hv(size)
      var i = 0
      var go = true
      while (go) {
        var c = 2 * i + 1
        if (c >= size) go = false
        else {
          if (c + 1 < size && hd(c + 1) < hd(c)) c += 1
          if (hd(c) < d) { hd(i) = hd(c); hv(i) = hv(c); i = c } else go = false
        }
      }
      hd(i) = d; hv(i) = v
    }
    dist(source) = 0.0
    push(0.0, source)
    while (size > 0 && left > 0) {
      val d = hd(0); val u = hv(0)
      pop()
      if (!done(u) && d <= dist(u)) {
        done(u) = true
        if (isTarget(u)) left -= 1
        var a = offsets(u)
        while (a < offsets(u + 1)) {
          val v = arcTo(a)
          val nd = d + cost(arcEdge(a))
          if (!done(v) && nd < dist(v)) { dist(v) = nd; push(nd, v) }
          a += 1
        }
      }
    }
    dist
  }
}

/** Output checks, each computed apart from the program: a summary that
  * fails one gets its reasons listed, and the known fault of ROADMAP item 4
  * (ST output that is not a tree, because KMB steps 4–5 are missing) is
  * reported as [[Checks.StCycle]].
  */
object Checks {
  val StCycle = "st-cycle"
  private val Delta = 1e-6
  private val Eps = 1e-9

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-12 * math.max(1.0, math.abs(a))

  /** Every reason `sub` (the output of `method` on `scenario`, with metric
    * row `row`) fails a check; empty when it passes.
    */
  def check(g: RefGraph, scenario: Scenario, method: Summarizer.Method, sub: Subgraph,
            row: Harness.MetricRow): Seq[String] = {
    val bad = ArrayBuffer.empty[String]
    val edgeIds = sub.edges.map(e => g.edge(e.src, e.dst))
    if (edgeIds.contains(-1)) bad += "edge-not-in-kg"
    bad ++= metricMismatch(scenario, method, sub, row)
    if (!bad.contains("edge-not-in-kg")) method match {
      case Summarizer.ST(lambda) => bad ++= checkSt(g, scenario, lambda, sub, edgeIds)
      case Summarizer.PCST(edgeCost) => bad ++= checkPrizeCollecting(g, scenario, edgeCost, sub)
      case Summarizer.Paths =>
    }
    bad.toSeq
  }

  /** Comprehensibility, actionability and privacy from node-id ranges. */
  private def metricMismatch(scenario: Scenario, method: Summarizer.Method, sub: Subgraph,
                             row: Harness.MetricRow): Seq[String] = {
    val nodes = (sub.edges.flatMap(e => Array(e.src, e.dst)) ++ sub.isolated).distinct
    val items = nodes.count(id => id >= 1000000L && id < 2000000L)
    val users = nodes.count(_ < 1000000L)
    val size = method match {
      case Summarizer.Paths => scenario.paths.map(_.nodes.length - 1).sum
      case _ => sub.edges.length
    }
    val compr = 1.0 / math.max(1, size)
    val act = if (nodes.isEmpty) 0.0 else items.toDouble / nodes.length
    val priv = if (nodes.isEmpty) 1.0 else 1.0 - users.toDouble / nodes.length
    Seq(
      "comprehensibility" -> close(compr, row.comprehensibility),
      "actionability" -> close(act, row.actionability),
      "privacy" -> close(priv, row.privacy),
    ).collect { case (m, false) => s"metric-$m" }
  }

  /** Vertices of the summary's edges, as RefGraph indices, with a union–find
    * over them; the Boolean is true when some edge closed a cycle.
    */
  private def forest(g: RefGraph, sub: Subgraph): (UnionFind, Boolean) = {
    val uf = new UnionFind(g.ids.length)
    var cycle = false
    sub.edges.foreach(e => if (!uf.union(g.index(e.src), g.index(e.dst))) cycle = true)
    (uf, cycle)
  }

  private def checkSt(g: RefGraph, scenario: Scenario, lambda: Double, sub: Subgraph,
                      edgeIds: Array[Int]): Seq[String] = {
    val bad = ArrayBuffer.empty[String]
    val terms = scenario.terminals.distinct.filter(g.contains).map(g.index)
    val present = (sub.edges.flatMap(e => Array(e.src, e.dst)) ++ sub.isolated).toSet
    if (!terms.forall(t => present.contains(g.ids(t)))) bad += "st-terminal-dropped"
    val (uf, cycle) = forest(g, sub)
    if (cycle) bad += StCycle
    val connected = terms.groupBy(g.component(_)).values.forall { ts =>
      ts.map(uf.find).distinct.length == 1
    }
    if (!connected) bad += "st-disconnected"

    // Eq. (1): w(e) = w_M(e)·(1 + λ·|{paths containing e}| / |S|), and the
    // kernel's cost(e) = W_max − w(e) + δ with W_max over adjusted weights.
    val counts = new java.util.HashMap[Integer, Integer]()
    scenario.paths.foreach { p =>
      p.nodes.sliding(2).collect { case Seq(a, b) => g.edge(a, b) }.filter(_ >= 0)
        .toSeq.distinct.foreach(e => counts.merge(e, 1, (x: Integer, y: Integer) => x + y))
    }
    val anchors = math.max(1, scenario.anchors).toDouble
    val w = g.weight.clone()
    counts.forEach((e, c) => w(e) = g.weight(e) * (1.0 + lambda * c.doubleValue() / anchors))
    val wMax = math.max(g.maxWeight, if (w.isEmpty) 0.0 else w.max)
    val cost = w.map(x => (wMax - x) + Delta)
    val stCost = edgeIds.iterator.map(cost(_)).sum

    // Metric closure over the in-graph terminals, then Kruskal.
    val pairs = ArrayBuffer.empty[(Double, Int, Int)]
    for (i <- terms.indices) {
      val dist = g.dijkstra(terms(i), cost, terms)
      for (j <- i + 1 until terms.length if dist(terms(j)).isFinite)
        pairs += ((dist(terms(j)), i, j))
    }
    val closure = new UnionFind(terms.length)
    val mst = pairs.sortBy(_._1).iterator.filter(p => closure.union(p._2, p._3)).map(_._1).sum
    val longest = if (pairs.isEmpty) 0.0 else pairs.map(_._1).max
    if (stCost < longest - Eps * math.max(1.0, longest)) bad += "st-below-pair-distance"
    if (stCost > mst + Eps * math.max(1.0, mst)) bad += "st-above-kmb-bound"
    bad.toSeq
  }

  private def checkPrizeCollecting(g: RefGraph, scenario: Scenario, edgeCost: Double,
                        sub: Subgraph): Seq[String] = {
    val bad = ArrayBuffer.empty[String]
    val (uf, cycle) = forest(g, sub)
    if (cycle) bad += "pcst-cycle"
    val terms = scenario.terminals.distinct.filter(g.contains).map(g.index).toSet
    val edgesPer = sub.edges.groupBy(e => uf.find(g.index(e.src))).view.mapValues(_.length)
    val termsPer = terms.groupBy(uf.find).view.mapValues(_.size)
    val overBudget = edgesPer.exists { case (root, n) =>
      n * edgeCost > termsPer.getOrElse(root, 0) + Eps
    }
    if (overBudget) bad += "pcst-over-budget"
    bad.toSeq
  }
}
