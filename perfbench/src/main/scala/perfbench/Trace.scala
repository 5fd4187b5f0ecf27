package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

/** One layer call seen from the benchmark thread. `parent` is the id of the
  * enclosing span (−1 at top level); `summary` is the task index of the
  * summary the call belongs to (−1 outside the timed phases).
  */
final case class Span(id: Int, name: String, parent: Int, summary: Int,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the traced run. Spans are opened and closed
  * only on the benchmark thread, so a stack gives each span its parent.
  * Disabled, it runs the body and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil

  def span[A](name: String, summary: Int = -1)(body: => A): A = {
    if (!enabled) return body
    val id = spans.length
    val parent = stack.headOption.getOrElse(-1)
    spans += null // reserve the id; filled in when the span closes
    stack = id :: stack
    val t0 = System.nanoTime()
    try body
    finally {
      spans(id) = Span(id, name, parent, summary, t0, System.nanoTime())
      stack = stack.tail
    }
  }

  def all: Seq[Span] = spans.toSeq

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  /** Write every span as one JSON array, times relative to the first span. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val t0 = if (spans.isEmpty) 0L else spans.head.startNs
    val out = new PrintWriter(file, "UTF-8")
    try {
      out.println("[")
      spans.iterator.zipWithIndex.foreach { case (s, i) =>
        val sep = if (i + 1 < spans.length) "," else ""
        out.println(s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},""" +
          s""""summary":${s.summary},"start_ns":${s.startNs - t0},"end_ns":${s.endNs - t0}}$sep""")
      }
      out.println("]")
    } finally out.close()
  }
}
