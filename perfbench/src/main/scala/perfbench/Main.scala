package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors}
import org.apache.spark.sql.SparkSession
import repro.core.{Summarizer, WeightAdjust}
import repro.eval.Harness
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Single-thread summary benchmark.
  *
  *   perfbench.Main --workload <sweep|groups|randomgraph> --seed <n>
  *                  --seconds <s> --trace <0|1>
  *
  * Set-up (Spark, generation, KG build, index, sampling, recommendations,
  * scenarios) runs [[Main.SetupReps]] times and `setup_s` is its median.
  * Every task then runs untimed, twice, spread over the cores; the first
  * pass's outputs are checked by [[Checks]]. The timed phase runs whole
  * rounds of all tasks, one summary at a time on this thread, for about
  * `--seconds`. With `--trace 1` an untraced
  * and a traced timed phase run back to back and the per-layer metrics are
  * reported instead of the end-to-end ones. The last line of standard
  * output is the JSON result.
  */
object Main {
  val SetupReps = 3
  val ExtraWarmPasses = 1
  val Recommender = "pgpr"

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  /** One timed operation: task index, wall time and bytes allocated. */
  final case class Sample(task: Int, ns: Long, bytes: Long)

  /** A timed phase: its samples, whole rounds, outputs that differed from
    * the untimed pass, and the largest heap occupancy seen right after a GC
    * (what the program keeps; peak usage would just track the heap size).
    */
  final case class Phase(samples: ArrayBuffer[Sample], rounds: Int, mismatches: Int,
                         liveHeapPeak: Long)

  private val heapPoolNames = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet

  /** Heap in use right after the most recent collection. */
  private def liveHeap(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.iterator
      .collect { case b: com.sun.management.GarbageCollectorMXBean => b.getLastGcInfo }
      .filter(_ != null)
      .maxByOption(_.getEndTime)
      .map(_.getMemoryUsageAfterGc.asScala.collect { case (n, u) if heapPoolNames(n) => u.getUsed }.sum)
      .getOrElse(0L)

  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def main(args: Array[String]): Unit = {
    val code =
      try { run(parse(args)); 0 }
      catch {
        case e: IllegalArgumentException => System.err.println(s"perfbench: ${e.getMessage}"); 2
        case e: Throwable => e.printStackTrace(); 1
      }
    System.exit(code)
  }

  def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, "arguments come in --flag value pairs")
    val m = args.grouped(2).map { case Array(k, v) => k -> v }.toMap
    val need = Seq("--workload", "--seed", "--seconds", "--trace")
    need.foreach(k => require(m.contains(k), s"missing $k"))
    require(m.keySet.subsetOf(need.toSet), s"unknown flag in ${m.keys.mkString(" ")}")
    val wl = Workloads.byName(m("--workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${m("--workload")}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val seconds = m("--seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    require(Set("0", "1").contains(m("--trace")), "--trace is 0 or 1")
    Opts(wl, m("--seed").toLong, seconds, m("--trace") == "1")
  }

  private def startSpark(cores: Int, work: File): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.local.dir", new File(work, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Sorted edges, isolated terminals and path-node count of a summary:
    * equal keys mean identical output.
    */
  private def key(r: Summarizer.Result): Array[Long] = {
    val s = r.subgraph
    val edges = s.edges.map(e => (e.src, e.dst)).sorted
    (Array(s.pathNodeOccurrences.toLong, edges.length.toLong) ++
      edges.flatMap { case (a, b) => Array(a, b) } ++ s.isolated.sorted)
  }

  private def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it; below
    * forty samples that would be no tail, and the median is reported.
    */
  private def tail(xs: Seq[Double]): Double =
    if (xs.length < 40) median(xs) else xs.sorted.apply(xs.length - 11)

  /** Wait, at most five seconds, until the JIT has compiled nothing for
    * 300 ms, so that the compilations the untimed pass queued while every
    * core was busy do not land in the timed phase.
    */
  private def awaitJitQuiet(): Unit = {
    val jit = ManagementFactory.getCompilationMXBean
    val end = System.nanoTime() + 5000000000L
    var last = jit.getTotalCompilationTime
    var quiet = false
    while (!quiet && System.nanoTime() < end) {
      Thread.sleep(300)
      val now = jit.getTotalCompilationTime
      quiet = now == last
      last = now
    }
    note(s"JIT ${if (quiet) "quiet" else "still compiling"} after ${jit.getTotalCompilationTime} ms of compilation")
  }

  /** Progress on standard error, with seconds since the JVM started. */
  private def note(msg: String): Unit =
    System.err.println(f"[perfbench ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%7.2f s] $msg")

  def run(o: Opts): Unit = {
    val wl = o.workload
    val cores = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors))
    val work = new File(System.getProperty("perfbench.work", ".bench_build/perfbench"))
    val tr = new Tracer(o.trace)

    // Set-up, repeated: Spark start-up is part of it, so each repetition
    // starts its own session.
    var spark: SparkSession = null
    var in: Inputs = null
    val setupS = (1 to SetupReps).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      tr.span("setup") {
        spark = tr.span("spark.start")(startSpark(cores, work))
        in = wl.setup(spark, o.seed, tr)
      }
      (System.nanoTime() - t0) / 1e9
    }
    val tasks = in.tasks
    val terminals = tasks.map(_.scenario).distinct.map(_.terminals.distinct.length.toDouble)
    println(f"setup ${wl.name}: ${setupS.map(s => f"$s%.2f").mkString(" ")} s; " +
      s"|V|=${in.idx.graph.numVertices} |E|=${in.idx.graph.numEdges}; ${terminals.length} scenarios, " +
      s"${tasks.length} tasks; |T| min ${terminals.min} median ${median(terminals)} max ${terminals.max}")

    note("set-up done")

    // Untimed pass over every task, spread over `cores` threads: it warms
    // the JIT and the index's lazy edge lookup, and gives the outputs that
    // the checks and the timed passes compare with. One thread first
    // collects the checks' own copy of the graph from kg.edges; each output
    // is checked on the thread that computed it.
    final case class Warm(res: Summarizer.Result, reasons: Seq[String])
    val pool = Executors.newFixedThreadPool(cores)
    val warm: IndexedSeq[Warm] = try {
      val ref = pool.submit(new Callable[RefGraph] {
        def call(): RefGraph = {
          val rows = in.kg.edges.select("src", "dst", "weight").collect()
          new RefGraph(rows.map(_.getLong(0)), rows.map(_.getLong(1)), rows.map(_.getDouble(2)))
        }
      })
      val first = tasks.map { t =>
        pool.submit(new Callable[Warm] {
          def call(): Warm = {
            val r = Summarizer.summarize(in.idx, t.scenario, t.method, t.k)
            val row = Harness.toRow(Recommender, r)
            val reasons =
              try Checks.check(ref.get(), t.scenario, t.method, r.subgraph, row)
              catch { case e: Exception => Seq(s"check-error: $e") }
            Warm(r, reasons)
          }
        })
      }.map(_.get())
      // After a single pass the first timed round on randomgraph ran
      // 15–40% slower than the later ones; one more pass removes most of it.
      (1 to ExtraWarmPasses).foreach { _ =>
        tasks.map { t =>
          pool.submit(new Callable[Summarizer.Result] {
            def call(): Summarizer.Result = Summarizer.summarize(in.idx, t.scenario, t.method, t.k)
          })
        }.foreach(_.get())
      }
      first
    } finally pool.shutdown()
    val reasons = warm.map(_.reasons)
    awaitJitQuiet()
    if (!o.trace) spark.stop()
    note("untimed pass and checks done")
    val warmKeys = warm.map(w => key(w.res))
    tasks.zip(reasons).filter(_._2.nonEmpty).foreach { case (t, rs) =>
      println(s"check failed: task ${t.id} ${t.scenario.id} ${t.method.label} k=${t.k}: ${rs.mkString(",")}")
    }
    val digest = {
      val md = java.security.MessageDigest.getInstance("SHA-256")
      val buf = java.nio.ByteBuffer.allocate(8)
      warmKeys.foreach(_.foreach { x => buf.clear(); buf.putLong(x); md.update(buf.array()) })
      md.digest().map(b => f"$b%02x").mkString
    }
    println(s"digest ${wl.name} seed=${o.seed}: $digest")

    def timed(traced: Boolean): Phase = {
      val samples = ArrayBuffer.empty[Sample]
      var rounds = 0
      var mismatches = 0
      var live = 0L
      // Whole rounds until `seconds` have passed, stopping early when the
      // next round would overshoot by more than half of it.
      val start = System.nanoTime()
      def elapsed = System.nanoTime() - start
      while (rounds == 0 || elapsed + elapsed / rounds / 2 < o.seconds * 1000000000L) {
        val cpu0 = threadBean.getCurrentThreadCpuTime; val (g0, _) = gcTotals()
        tasks.foreach { t =>
          val a0 = threadBean.getCurrentThreadAllocatedBytes
          val t0 = System.nanoTime()
          val r =
            if (!traced) {
              val r = Summarizer.summarize(in.idx, t.scenario, t.method, t.k)
              if (wl.withMetricRows) Harness.toRow(Recommender, r)
              r
            } else tr.span("op", t.id) {
              t.method match {
                case Summarizer.ST(lambda) => tr.span("core.overlay", t.id) {
                  WeightAdjust.overlay(in.idx, t.scenario.paths, t.scenario.anchors, lambda)
                }
                case _ =>
              }
              val r = tr.span("core.summarize", t.id)(Summarizer.summarize(in.idx, t.scenario, t.method, t.k))
              if (wl.withMetricRows) tr.span("core.metrics", t.id)(Harness.toRow(Recommender, r))
              r
            }
          val t1 = System.nanoTime()
          val a1 = threadBean.getCurrentThreadAllocatedBytes
          samples += Sample(t.id, t1 - t0, a1 - a0)
          // Where the timed operation has no metric row, the traced phase
          // still times one, outside the operation, for core.metrics_ms.
          if (traced && !wl.withMetricRows) tr.span("core.metrics", t.id)(Harness.toRow(Recommender, r))
          if (!java.util.Arrays.equals(key(r), warmKeys(t.id))) mismatches += 1
          live = math.max(live, liveHeap())
        }
        rounds += 1
        val last = samples.takeRight(tasks.length)
        val (g1, _) = gcTotals()
        note(f"round $rounds: ${last.map(_.ns).sum / 1e9}%.3f s busy, cpu ${(threadBean.getCurrentThreadCpuTime - cpu0) / 1e9}%.3f s, gc ${g1 - g0} ms")
      }
      Phase(samples, rounds, mismatches, live)
    }

    val (gcMs0, gcN0) = gcTotals()
    val plain = timed(traced = false)
    val (gcMs1, gcN1) = gcTotals()
    val heapPeakMb = plain.liveHeapPeak / 1e6
    note("timed phase done")
    val phases = if (o.trace) Seq(plain, timed(traced = true)) else Seq(plain)

    val failedTask = reasons.map(_.nonEmpty)
    val attempted = phases.map(_.samples.length).sum
    val failed = phases.map(_.samples.count(s => failedTask(s.task))).sum +
      phases.map(_.mismatches).sum
    var correct = reasons.forall(_.forall(_ == Checks.StCycle)) && phases.forall(_.mismatches == 0)

    val isSt = tasks.map(_.method.isInstanceOf[Summarizer.ST])
    val isPrizeCollecting = tasks.map(_.method.isInstanceOf[Summarizer.PCST])
    val ok = plain.samples.filterNot(s => failedTask(s.task))
    val stMs = ok.filter(s => isSt(s.task)).map(_.ns / 1e6).toSeq
    val pcstMs = ok.filter(s => isPrizeCollecting(s.task)).map(_.ns / 1e6).toSeq
    val metrics = ArrayBuffer.empty[(String, Double, String)]

    if (!o.trace) {
      val busyS = plain.samples.map(_.ns).sum / 1e9
      metrics ++= Seq(
        ("setup_s", median(setupS), "s"),
        ("summaries_per_s", plain.samples.length / busyS, "1/s"),
        ("st_p50_ms", median(stMs), "ms"),
        ("st_tail_ms", tail(stMs), "ms"),
        ("st_mean_ms", stMs.sum / stMs.length, "ms"),
        ("pcst_p50_ms", median(pcstMs), "ms"),
        ("pcst_tail_ms", tail(pcstMs), "ms"),
        ("pcst_mean_ms", pcstMs.sum / pcstMs.length, "ms"),
        ("st_alloc_mb", median(ok.filter(s => isSt(s.task)).map(_.bytes / 1e6).toSeq), "MB"),
        ("pcst_alloc_mb", median(ok.filter(s => isPrizeCollecting(s.task)).map(_.bytes / 1e6).toSeq), "MB"),
      )
      println(s"timed: ${plain.rounds} rounds, ${plain.samples.length} summaries in ${f"$busyS%.2f"} s; " +
        s"samples st=${stMs.length} pcst=${pcstMs.length} (tail is the median below 40 samples)")
    } else {
      val traced = phases(1)
      def spanMs(name: String): Seq[Double] = tr.named(name).map(_.durNs / 1e6)
      // Set-up layers: median over the repetitions.
      def setupLayer(name: String): Double = median(spanMs(name)) / 1e3
      val nOverlay = tr.named("core.overlay").length
      val overlayNs = tr.named("core.overlay").map(_.durNs).sum
      val stSummarizeNs = tr.named("core.summarize").filter(s => isSt(s.summary)).map(_.durNs).sum
      val nStTraced = tr.named("core.summarize").count(s => isSt(s.summary))
      val tracedOpNs = tr.named("op").map(_.durNs).sum - overlayNs
      val plainMean = plain.samples.map(_.ns).sum.toDouble / plain.samples.length
      val tracedMean = tracedOpNs.toDouble / traced.samples.length

      // Spark fan-out reference over the same tasks.
      val sc = spark.sparkContext
      val kgB = sc.broadcast(in.idx)
      val b0 = System.nanoTime()
      val batch = tr.span("core.batch") {
        Summarizer.summarizeBatch(sc, kgB, tasks.map(t => (t.scenario, t.method, t.k)))
      }
      val batchS = (System.nanoTime() - b0) / 1e9
      kgB.destroy()
      val batchEqual = batch.length == tasks.length &&
        batch.indices.forall(i => java.util.Arrays.equals(key(batch(i)), warmKeys(i)))
      if (!batchEqual) println("check failed: summarizeBatch differs from the sequential results")
      correct &&= batchEqual
      val seqRoundS = tr.named("core.summarize").map(_.durNs).sum / 1e9 / traced.rounds

      val overlaySizes = tasks.filter(t => isSt(t.id)).map { t =>
        val Summarizer.ST(l) = t.method
        WeightAdjust.overlay(in.idx, t.scenario.paths, t.scenario.anchors, l).size().toDouble
      }
      metrics ++= Seq(
        ("spark.start_s", setupLayer("spark.start"), "s"),
        ("kg.build_s", setupLayer("kg.build"), "s"),
        ("kg.index_s", setupLayer("kg.index"), "s"),
        ("eval.sample_s", setupLayer("eval.sample"), "s"),
        ("rec.recommend_s", setupLayer("rec.recommend"), "s"),
        ("eval.scenarios_s", setupLayer("eval.scenarios"), "s"),
        ("core.overlay_ms", overlayNs / 1e6 / math.max(1, nOverlay), "ms"),
        ("core.overlay_share", overlayNs.toDouble / math.max(1L, stSummarizeNs), "ratio"),
        ("core.st_rest_ms", (stSummarizeNs - overlayNs) / 1e6 / math.max(1, nStTraced), "ms"),
        ("core.metrics_ms", median(spanMs("core.metrics")), "ms"),
        ("jvm.gc_ms", (gcMs1 - gcMs0).toDouble, "ms"),
        ("jvm.gc_count", (gcN1 - gcN0).toDouble, "count"),
        ("jvm.heap_peak_mb", heapPeakMb, "MB"),
        ("core.batch_s", batchS, "s"),
        ("core.batch_speedup", seqRoundS / batchS, "ratio"),
        ("graph.vertices", in.idx.graph.numVertices.toDouble, "count"),
        ("graph.edges", in.idx.graph.numEdges.toDouble, "count"),
        ("rec.paths", in.recPaths.toDouble, "count"),
        ("eval.scenarios", terminals.length.toDouble, "count"),
        ("eval.tasks", tasks.length.toDouble, "count"),
        ("eval.terminals_p50", median(terminals), "count"),
        ("eval.terminals_max", terminals.max, "count"),
        ("core.overlay_edges", overlaySizes.sum / math.max(1, overlaySizes.length), "count"),
        ("core.summary_edges", warm.map(_.res.subgraph.edges.length.toDouble).sum / tasks.length, "count"),
        ("core.path_node_occurrences", warm.map(_.res.subgraph.pathNodeOccurrences.toDouble).sum / tasks.length, "count"),
        ("trace.overhead_pct", 100 * (tracedMean - plainMean) / plainMean, "%"),
        ("trace.spans", tr.all.length.toDouble, "count"),
      )
      val spanFile = new File(work, s"spans-${wl.name}-seed${o.seed}.json")
      tr.write(spanFile)
      println(s"spans: ${tr.all.length} written to ${spanFile.getPath}; " +
        f"untraced ${plainMean / 1e6}%.3f ms/op, traced ${tracedMean / 1e6}%.3f ms/op")
      spark.stop()
    }

    val body = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)
}
