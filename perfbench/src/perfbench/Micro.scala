package perfbench

import repro.data.Flight
import repro.ml.{LDA, LinearRegression, Unpacked}
import repro.ring.{CofactorSchema, Triple}

import scala.util.Random

/** Driver-only ring and training microbench, timed around public calls.
  * Every figure is the median of several repetitions.
  */
object Micro {
  private val Reps = 5

  private def medianNs(reps: Int)(f: => Unit): Double = {
    val ts = (0 until reps).map { _ => val t0 = System.nanoTime(); f; (System.nanoTime() - t0).toDouble }
    Stats.median(ts)
  }

  /** Flight joined domains: diverted, longhaul, o_region, cr_alliance. */
  private val FlightDomains = Array(2, 2, 4, 3)

  private def rowsOf(rnd: Random, n: Int, k: Int, domains: Array[Int]): Array[(Array[Double], Array[Int])] =
    Array.fill(n)((Array.fill(k)(rnd.nextGaussian() * 100), domains.map(rnd.nextInt)))

  private def tripleOf(rows: Array[(Array[Double], Array[Int])], k: Int, l: Int): Triple = {
    val t = Triple.zero(k, l)
    rows.foreach { case (c, d) => t.addRow(c, d) }
    t
  }

  /** Named values: `ring.*` and `ml.*` per-layer metrics. */
  def run(seed: Long): Map[String, Double] = {
    val rnd = new Random(seed)
    val n = 20000
    val cont = rowsOf(rnd, n, 12, Array.empty)
    val mixed = rowsOf(rnd, n, 12, FlightDomains)
    val addCont = medianNs(Reps)(tripleOf(cont, 12, 0))
    val addMixed = medianNs(Reps)(tripleOf(mixed, 12, 4))

    val a = tripleOf(mixed.take(5000), 12, 4)
    val b = tripleOf(mixed.drop(5000).take(5000), 12, 4)
    val plus = medianNs(Reps)((0 until 100).foreach(_ => a.copyTriple().plus(b))) / 100

    // A lifted fact row times each Retailer dimension's per-key partial (one
    // dimension row per key): loc_census (4 cont, 2 cat), item (1, 2), weather (2, 2).
    val dimArities = Seq((4, Array(5, 3)), (1, Array(8, 4)), (2, Array(2, 2)))
    val dimParts = dimArities.map { case (k, dom) => tripleOf(rowsOf(rnd, 1, k, dom), k, dom.length) }
    val fact = Triple.lift(1, 0, Array(150.0), Array.empty)
    val times = medianNs(Reps) {
      (0 until 100).foreach(_ => dimParts.foldLeft(fact)(_.times(_)))
    } / 100

    val bytes = Triple.toBytes(a)
    val codec = medianNs(Reps)((0 until 20).foreach(_ => Triple.fromBytes(Triple.toBytes(a)))) / 20

    val schema = CofactorSchema(Flight.JoinedCont, Flight.JoinedCat)
    val full = tripleOf(mixed, 12, 4)
    val lr = medianNs(Reps)(LinearRegression.train(new Unpacked(schema, full), "distance"))
    val lda = medianNs(Reps)(LDA.train(new Unpacked(schema, full), "longhaul"))

    Map(
      "ring.addrow_cont_mrows_s" -> n / (addCont / 1e9) / 1e6,
      "ring.addrow_mixed_mrows_s" -> n / (addMixed / 1e9) / 1e6,
      "ring.plus_us" -> plus / 1e3,
      "ring.times_us" -> times / 1e3,
      "ring.codec_bytes" -> bytes.length.toDouble,
      "ring.codec_us" -> codec / 1e3,
      "ml.train_lr_ms" -> lr / 1e6,
      "ml.train_lda_ms" -> lda / 1e6,
    )
  }
}
