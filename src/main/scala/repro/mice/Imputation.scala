package repro.mice

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.ml.{LDA, LdaModel, LinearRegression, RegressionModel, Unpacked}
import repro.ring.{CofactorSchema, Triple}

/** A model trained for one incomplete attribute, able to impute one record or
  * a whole column. Stochastic linear regression for continuous targets, LDA
  * for categorical ones — the two §3 models that share the triple's aggregates.
  */
sealed trait AttrModel {
  def target: String

  /** Imputed value of one record, given attribute arrays in the training
    * schema's order; regression noise is keyed on (`seed`, `rowId`).
    */
  def predictRow(cont: Array[Double], cat: Array[Int], stochastic: Boolean, seed: Long, rowId: Long): Double

  /** [[predictRow]] as a column over the cofactor-schema columns and
    * [[Imputation.RowId]].
    */
  def predictColumn(stochastic: Boolean, seed: Long): Column
}

final case class ContAttrModel(model: RegressionModel) extends AttrModel {
  def target: String = model.target
  def predictRow(cont: Array[Double], cat: Array[Int], stochastic: Boolean, seed: Long, rowId: Long): Double =
    model.impute(cont, cat, stochastic, seed, rowId)
  def predictColumn(stochastic: Boolean, seed: Long): Column =
    model.predictColumn(stochastic, seed, col(Imputation.RowId))
}

final case class CatAttrModel(model: LdaModel) extends AttrModel {
  def target: String = model.target
  def predictRow(cont: Array[Double], cat: Array[Int], stochastic: Boolean, seed: Long, rowId: Long): Double =
    model.predict(cont, cat).toDouble
  def predictColumn(stochastic: Boolean, seed: Long): Column = model.predictColumn
}

/** Shared plumbing of all MICE implementations: mask bookkeeping, mean/mode
  * initial imputation, model training off a triple, and the checkpointed
  * whole-table column update of Algorithm 1 and the competitors.
  */
object Imputation {

  /** Stable row id, assigned once in [[prepare]]: the key of the regression noise. */
  val RowId = "__rid"

  /** Preprocessing shared by every MICE driver (Algorithm 1/2, line 1): mask
    * columns, mean/mode initial imputation and a [[RowId]], checkpointed.
    */
  def prepare(df: DataFrame, schema: MiceSchema): DataFrame = {
    val masked = addMasks(df, schema)
    initImpute(masked, schema, initialGuesses(masked, schema))
      .withColumn(RowId, monotonically_increasing_id())
      .localCheckpoint(true)
  }

  /** Add `__miss_t` mask columns recording which values are (originally) null. */
  def addMasks(df: DataFrame, schema: MiceSchema): DataFrame =
    schema.targets.foldLeft(df)((d, t) => d.withColumn(schema.maskCol(t), col(t).isNull))

  /** Per-attribute initial guesses: mean for continuous, mode for categorical. */
  def initialGuesses(df: DataFrame, schema: MiceSchema): Map[String, Double] = {
    val contTargets = schema.targets.filter(schema.isContinuous)
    val means: Map[String, Double] =
      if (contTargets.isEmpty) Map.empty
      else {
        val row = df.select(contTargets.map(t => avg(col(t)).as(t)): _*).head()
        contTargets.map(t => t -> Option(row.getAs[Any](t)).fold(0.0)(_.toString.toDouble)).toMap
      }
    val modes: Map[String, Double] = schema.targets.filterNot(schema.isContinuous).map { t =>
      val top = df.filter(col(t).isNotNull).groupBy(col(t)).count()
        .orderBy(desc("count"), col(t)).head()
      t -> top.get(0).toString.toDouble
    }.toMap
    means ++ modes
  }

  /** Replace nulls in every target with its initial guess (Algorithm 1/2, line 1). */
  def initImpute(df: DataFrame, schema: MiceSchema, guesses: Map[String, Double]): DataFrame =
    schema.targets.foldLeft(df) { (d, t) =>
      val v: Column =
        if (schema.isContinuous(t)) lit(guesses(t)) else lit(guesses(t).toInt)
      d.withColumn(t, coalesce(col(t), v))
    }

  /** Train the §3 model for `target` from an already-computed triple. */
  def train(triple: Triple, schema: MiceSchema, target: String, cfg: MiceConfig): AttrModel = {
    val up = new Unpacked(schema.cofactor, triple)
    if (schema.isContinuous(target))
      ContAttrModel(LinearRegression.train(up, target, cfg.lambda, cfg.cg))
    else
      CatAttrModel(LDA.train(up, target, cfg.lambda))
  }

  /** Deterministic per-(iteration, attribute) noise seed. */
  def noiseSeed(cfg: MiceConfig, iter: Int, target: String): Long =
    cfg.seed + 1_000_003L * iter + 17L * target.hashCode

  /** `target := pred where mask` as a new, lineage-truncated DataFrame.
    *
    * `localCheckpoint(eager)` materializes the updated column and cuts the
    * logical plan — repeated `withColumn` chains across MICE rounds would
    * otherwise replay every previous imputation on each aggregate.
    */
  def updateWhereMasked(df: DataFrame, schema: MiceSchema, target: String, pred: Column): DataFrame = {
    val dt = df.schema(target).dataType
    df.withColumn(target, when(col(schema.maskCol(target)), pred.cast(dt)).otherwise(col(target)))
      .localCheckpoint(true)
  }

  /** Number-of-missing-targets column (partitioning criterion of §4). */
  def missCount(schema: MiceSchema): Column =
    schema.targets.map(t => col(schema.maskCol(t)).cast("int")).reduce(_ + _)

  /** Drop bookkeeping columns, restoring the user-facing schema. */
  def stripMasks(df: DataFrame, schema: MiceSchema): DataFrame =
    df.select(schema.dataCols.map(col): _*)
}
