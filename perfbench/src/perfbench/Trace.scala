package perfbench

import scala.collection.mutable

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}

/** A timed interval at a layer boundary; times are epoch milliseconds. */
final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double,
                      attrs: Map[String, Any] = Map.empty)

/** In-memory span recorder, written out once the run ends. Disabled, it only
  * runs the wrapped code, so untraced runs pay nothing for it.
  */
final class Tracer(enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack = List(0) // 0 is the root: the whole run
  private var nextId = 1
  private val originMs = System.currentTimeMillis().toDouble
  private val originNs = System.nanoTime()

  def nowMs: Double = originMs + (System.nanoTime() - originNs) / 1e6

  def span[T](name: String, attrs: Map[String, Any] = Map.empty)(f: => T): T =
    if (!enabled) f
    else {
      val id = nextId; nextId += 1
      val parent = stack.head
      val t0 = nowMs
      stack = id :: stack
      try f
      finally {
        stack = stack.tail
        spans += Span(id, parent, name, t0, nowMs, attrs)
      }
    }

  /** Add externally timed child spans (Spark jobs) under the innermost
    * recorded span that covers each one's start.
    */
  def addChildren(children: Seq[(String, Double, Double, Map[String, Any])]): Unit = {
    val own = spans.toSeq
    for ((name, s, e, attrs) <- children) {
      val covering = own.filter(p => p.startMs <= s && s < p.endMs)
      val parent = if (covering.isEmpty) 0 else covering.minBy(p => p.endMs - p.startMs).id
      spans += Span(nextId, parent, name, s, e, attrs)
      nextId += 1
    }
  }

  def all: Seq[Span] = spans.sortBy(_.startMs).toSeq
}

/** Minimal JSON writer for the result line and the trace file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def apply(v: Any): String = v match {
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => m.map { case (k, x) => str(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ", ", "]")
    case sp: Span =>
      apply(Map("id" -> sp.id, "parent" -> sp.parent, "name" -> sp.name,
        "start_ms" -> sp.startMs, "end_ms" -> sp.endMs, "attrs" -> sp.attrs))
    case other => str(other.toString)
  }
}
