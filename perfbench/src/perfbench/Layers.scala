package perfbench

import scala.collection.immutable.VectorMap

/** Per-layer metrics of the traced run, from the Spark jobs the listener saw
  * and the phase timings each driver reports in its `MiceResult`.
  *
  * A job belongs to the window its start falls in. Windows come from the
  * driver's own timings: preprocessing first, then the rounds back to back.
  * Each figure is the median over the run's imputations.
  */
object Layers {
  private val MB = 1024.0 * 1024.0

  val Phases = Seq("init_cofactor", "delta_cofactor", "cofactor", "train", "update", "dim_partials")

  def unitOf(name: String): String =
    if (name.endsWith("_mrows_s")) "Mrows/s"
    else if (name.endsWith("_us")) "us"
    else if (name.endsWith("_ms")) "ms"
    else if (name.endsWith("_bytes")) "bytes"
    else if (name.endsWith("_mb") || name.contains("_mb_")) "MB"
    else if (name.endsWith("_s") || name.endsWith("_s_per_round")) "s"
    else if (name == "spark.core_util") "ratio"
    else "count"

  /** Total wall time covered by the union of `[start, end)` intervals. */
  private def coveredMs(iv: Seq[(Double, Double)]): Double =
    iv.sortBy(_._1).foldLeft((0.0, Double.NegativeInfinity)) { case ((acc, reach), (s, e)) =>
      if (e <= reach) (acc, reach) else (acc + e - math.max(s, reach), e)
    }._1

  def perLayer(l: WorkListener, imps: Seq[Bench.Imputation], cores: Int): VectorMap[String, (Double, String)] = {
    val per = imps.map { imp =>
      val r = imp.result
      val roundsFrom = imp.startMs + r.preprocessSecs * 1000
      val roundsTo = roundsFrom + r.roundSecs.sum * 1000
      val n = r.roundSecs.size.toDouble
      val all = l.jobsIn(imp.startMs, imp.startMs + imp.imputeS * 1000)
      val rounds = l.jobsIn(roundsFrom, roundsTo)
      def of(m: String) = rounds.filter(_.module == m)
      def busyS(js: Seq[JobRecord]) = js.map(_.wallMs).sum / 1000.0
      val covered = coveredMs(rounds.map(j => (j.startMs.toDouble, math.min(j.endMs.toDouble, roundsTo))))
      VectorMap[String, Double](
        "spark.jobs_per_round" -> rounds.size / n,
        "spark.tasks_per_round" -> rounds.map(_.tasks).sum / n,
        "spark.core_util" -> all.map(_.taskRunMs).sum / math.max(1.0, all.map(_.wallMs).sum * cores.toDouble),
        "spark.shuffle_mb_per_round" -> rounds.map(_.shuffleWriteBytes).sum / MB / n,
        "spark.task_failures" -> all.map(_.failedTasks).sum.toDouble,
        "spark.jobs_per_impute" -> all.size.toDouble,
        "spark.stages_per_impute" -> all.map(_.stages).sum.toDouble,
        "spark.shuffle_mb_per_impute" -> all.map(_.shuffleWriteBytes).sum / MB,
        "spark.block_mb_per_impute" -> all.map(_.blockBytes).sum / MB,
        "ring.cofactor.jobs_per_round" -> of("ring.cofactor").size / n,
        "ring.cofactor.busy_s_per_round" -> busyS(of("ring.cofactor")) / n,
        "ring.factorized.jobs_per_round" -> of("ring.factorized").size / n,
        "ring.factorized.busy_s_per_round" -> busyS(of("ring.factorized")) / n,
        "ring.factorized.shuffle_mb" -> all.filter(_.module == "ring.factorized").map(_.shuffleWriteBytes).sum / MB,
        "mice.update.jobs_per_round" -> of("mice").size / n,
        "mice.update.busy_s_per_round" -> busyS(of("mice")) / n,
        "mice.update.block_mb_per_round" -> of("mice").map(_.blockBytes).sum / MB / n,
        "mice.driver_self_s_per_round" -> (r.roundSecs.sum * 1000 - covered) / 1000.0 / n,
        "mice.rounds" -> n,
      ) ++ Phases.map(p => s"mice.phase.${p}_s" -> r.breakdown.getOrElse(p, 0.0))
    }
    VectorMap.from(per.head.keys.map(k => k -> (Stats.median(per.map(_(k))), unitOf(k))))
  }
}
