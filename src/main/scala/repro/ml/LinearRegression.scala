package repro.ml

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.linalg.LinAlg
import repro.ring.{Cofactor, CofactorSchema, Triple}

/** Ridge linear regression trained purely from a cofactor triple (§2.2): the
  * data was scanned once to produce the triple; solving the normal equations
  * `(A + λD) θ' = b` happens on the driver in O(m²)-per-step time, decoupled
  * from the dataset size.
  *
  * @param wCat per categorical attribute: category code → weight (codes unseen
  *             at training time contribute 0, i.e. fall back to the intercept)
  * @param sigma2 residual variance `θᵀCθ/N` used by stochastic imputation
  */
final case class RegressionModel(
    schema: CofactorSchema,
    target: String,
    intercept: Double,
    wCont: Array[Double],
    wCat: Array[Map[Int, Double]],
    sigma2: Double,
    n: Double,
) {

  /** Mean prediction for one record given attribute arrays in schema order
    * (the target's own slot is ignored — its weight is 0).
    */
  def predict(cont: Array[Double], cat: Array[Int]): Double = {
    var p = intercept
    var i = 0
    while (i < wCont.length) { p += wCont(i) * cont(i); i += 1 }
    var j = 0
    while (j < wCat.length) { p += wCat(j).getOrElse(cat(j), 0.0); j += 1 }
    p
  }

  /** Imputed value for one record: the mean prediction, plus with
    * `stochastic = true` the noise ε = σ · [[Noise.gaussian]](seed, rowId) of
    * stochastic regression imputation (§3.1).
    */
  def impute(cont: Array[Double], cat: Array[Int], stochastic: Boolean, seed: Long, rowId: Long): Double =
    if (!stochastic || sigma2 <= 0) predict(cont, cat)
    else predict(cont, cat) + math.sqrt(sigma2) * Noise.gaussian(seed, rowId)

  /** Catalyst column of [[impute]] over the model's schema columns. The noise
    * is keyed on `rowId`, so a row draws the same ε whatever the partitioning.
    */
  def predictColumn(stochastic: Boolean, seed: Long, rowId: Column = monotonically_increasing_id()): Column = {
    val (c, d) = Cofactor.inputCols(schema)
    val model = this
    if (!stochastic || sigma2 <= 0)
      udf((cont: Seq[Double], cat: Seq[Int]) => model.predict(cont.toArray, cat.toArray)).apply(c, d)
    else
      udf((cont: Seq[Double], cat: Seq[Int], rid: Long) =>
        model.impute(cont.toArray, cat.toArray, stochastic = true, seed, rid)).apply(c, d, rowId)
  }
}

/** Standard-normal noise as a pure function of (seed, row id): SplitMix64
  * hashes give two uniforms, Box–Muller turns them into N(0, 1).
  */
object Noise {
  private val Ulp = 1.0 / (1L << 53)

  private def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def gaussian(seed: Long, rowId: Long): Double = {
    val h1 = mix(seed ^ mix(rowId))
    val h2 = mix(h1)
    val u1 = ((h1 >>> 11) + 1) * Ulp // (0, 1]: the log stays finite
    val u2 = (h2 >>> 11) * Ulp
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }
}

object LinearRegression {

  /** Train ridge regression for continuous `target` from an unpacked cofactor.
    *
    * Feature columns are the intercept, all other continuous attributes, and
    * every one-hot category column; ridge scales each diagonal entry by
    * `(1 + lambda)` (relative regularization — scale-free, and makes the
    * one-hot-singular system strictly PD). `cg=true` uses the iterative
    * preconditioned-CG solver (our stand-in for the paper's batch GD off the
    * cofactor matrix); `cg=false` uses the LU direct solve (as SystemDS/MADlib
    * do).
    */
  def train(up: Unpacked, target: String, lambda: Double = 1e-3, cg: Boolean = true): RegressionModel = {
    val schema = up.schema
    val tIdx = schema.contIdx(target)
    val tCol = up.contCol(tIdx)
    val m = up.matrix
    val feats = (0 until up.dim).filter(_ != tCol).toArray
    val a = Array.tabulate(feats.length, feats.length) { (i, j) =>
      val v = m(feats(i))(feats(j))
      if (i == j && feats(i) != 0) v * (1.0 + lambda) else v
    }
    val b = Array.tabulate(feats.length)(i => m(feats(i))(tCol))
    val theta =
      if (up.triple.n < 1) new Array[Double](feats.length)
      else if (cg) LinAlg.cgSolve(a, b)
      else LinAlg.solve(a, b)

    // Scatter θ back into per-attribute weights.
    val wCont = new Array[Double](schema.k)
    val wCat = Array.fill(schema.l)(Map.newBuilder[Int, Double])
    var intercept = 0.0
    var fi = 0
    while (fi < feats.length) {
      val colIdx = feats(fi)
      if (colIdx == 0) intercept = theta(fi)
      else if (colIdx <= schema.k) wCont(colIdx - 1) = theta(fi)
      else {
        val j = up.catOffsets.lastIndexWhere(_ <= colIdx)
        wCat(j) += (up.dicts(j)(colIdx - up.catOffsets(j)) -> theta(fi))
      }
      fi += 1
    }

    // Residual variance σ² = θᵀ C θ / N with θ_target fixed to −1 (§3.1).
    val full = new Array[Double](up.dim)
    fi = 0
    while (fi < feats.length) { full(feats(fi)) = theta(fi); fi += 1 }
    full(tCol) = -1.0
    val sigma2 = if (up.triple.n > 0) math.max(0.0, LinAlg.dot(full, LinAlg.matVec(m, full)) / up.triple.n) else 0.0

    RegressionModel(schema, target, intercept, wCont, wCat.map(_.result()), sigma2, up.triple.n)
  }

  /** Convenience: aggregate + train in one call. */
  def trainOn(df: org.apache.spark.sql.DataFrame, schema: CofactorSchema, target: String,
              lambda: Double = 1e-3, cg: Boolean = true): RegressionModel =
    train(new Unpacked(schema, Cofactor.triple(df, schema)), target, lambda, cg)
}
