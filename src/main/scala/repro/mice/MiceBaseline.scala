package repro.mice

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ring.Cofactor
import repro.util.Timing

/** Outcome of a MICE run, with the timing split the paper reports in Fig 4–6:
  * one-off preprocessing vs per-round iteration cost, plus a named phase
  * breakdown (Fig 5).
  */
final case class MiceResult(
    imputed: DataFrame,
    preprocessSecs: Double,
    roundSecs: Seq[Double],
    breakdown: Map[String, Double],
)

/** Algorithm 1 with in-database ML: per incomplete attribute and iteration,
  * one `SUM_TRIPLE` pass over the observed part, train off the triple, impute
  * the missing part. No computation sharing — the reference point the §4
  * optimizations are measured against.
  */
object MiceBaseline {

  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig = MiceConfig()): MiceResult = {
    val sw = new Timing.StopWatch
    val (cur0, prepSecs) = Timing.timed(Imputation.prepare(df0, schema))
    var cur = cur0
    val roundSecs = (0 until cfg.iterations).map { iter =>
      val (_, secs) = Timing.timed {
        for (t <- schema.targets) {
          val triple = sw.phase("cofactor") {
            Cofactor.triple(cur.filter(!col(schema.maskCol(t))), schema.cofactor)
          }
          val model = sw.phase("train")(Imputation.train(triple, schema, t, cfg))
          cur = sw.phase("update") {
            Imputation.updateWhereMasked(cur, schema, t,
              model.predictColumn(cfg.stochastic, Imputation.noiseSeed(cfg, iter, t)))
          }
        }
      }
      secs
    }
    MiceResult(Imputation.stripMasks(cur, schema), prepSecs, roundSecs, sw.snapshot)
  }
}
