package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.data.{Flight, Missingness, Retailer}
import repro.eval.Metrics
import repro.mice._
import repro.ring.{CofactorSchema, DimSpec, Stage}

/** The benchmark's inputs for one workload and seed: an incomplete training
  * split to impute, and a complete test split for the §6.4 downstream check.
  * Everything here was cached by the benchmark and is released by [[release]].
  */
final class Input(
    val train: DataFrame,
    val test: DataFrame,
    val dims: Seq[DimSpec],
    val trainRows: Long,
    val labelStd: Double,
    val catDomains: Map[String, Seq[Int]],
    cached: Seq[DataFrame],
) {
  def release(): Unit = cached.foreach(_.unpersist(blocking = true))
}

/** One benchmark workload: how to build its input from a seed, which public
  * MICE driver imputes it, and how to evaluate the imputed output downstream.
  */
sealed trait Workload {
  def name: String
  def rows: Long
  def missingRate: Double
  /** MICE rounds per imputation: enough for `round_s`, a median over rounds,
    * to be steady at this workload's round length.
    */
  def rounds: Int
  def schema: MiceSchema
  /** Label and feature layout of the downstream ridge regression. */
  def label: String
  def downstreamSchema: CofactorSchema

  /** The complete relation: the single table, or the fact table. */
  protected def complete(spark: SparkSession, seed: Long): DataFrame
  /** Dimension tables joined to the fact table, if the input is normalized. */
  protected def dimensions(spark: SparkSession, seed: Long): Seq[DimSpec] = Nil
  def impute(in: Input, cfg: MiceConfig): MiceResult
  /** The imputed training split (or the test split) as the downstream table. */
  def downstreamView(df: DataFrame, dims: Seq[DimSpec]): DataFrame

  val TestFraction = 0.2

  /** Generate, split, inject MCAR into the training split, cache. */
  def prepare(spark: SparkSession, seed: Long): Input = {
    val dims = dimensions(spark, seed).map(d => d.copy(df = d.df.cache()))
    val full = complete(spark, seed).cache()
    val (trainFull, testFull) = Metrics.split(full, TestFraction, seed)
    val train = Missingness.mcar(trainFull, schema.targets, missingRate, seed).cache()
    val test = downstreamView(testFull, dims).cache()
    // One pass over each split fills its cache and reads what the checks need.
    val cats = schema.targets.filterNot(schema.isContinuous)
    val t = train.agg(count(lit(1)), cats.map(c => collect_set(col(c))): _*).head()
    val catDomains = cats.zipWithIndex.map { case (c, i) => c -> t.getSeq[Int](i + 1).sorted }.toMap
    val labelStd = test.agg(stddev_pop(col(label))).head().getDouble(0)
    full.unpersist(blocking = true)
    new Input(train, test, dims, t.getLong(0), labelStd, catDomains, Seq(train, test) ++ dims.map(_.df))
  }
}

/** Flight joined view (fact ⋈ airports ⋈ carriers), imputed as one table. */
final case class FlightSingle(name: String, rows: Long, missingRate: Double, high: Boolean)
    extends Workload {
  val rounds = 2
  val schema: MiceSchema = MiceSchema(Flight.JoinedCont, Flight.JoinedCat, Flight.IncompleteAttrs)
  // Flight duration, complete in every workload (§6.4).
  val label = "airtime"
  val downstreamSchema: CofactorSchema = schema.cofactor

  protected def complete(spark: SparkSession, seed: Long): DataFrame =
    Flight.joined(spark, rows, seed).select(schema.dataCols.map(col): _*)

  def impute(in: Input, cfg: MiceConfig): MiceResult =
    if (high) MiceHigh.impute(in.train, schema, cfg) else MiceLow.impute(in.train, schema, cfg)

  def downstreamView(df: DataFrame, dims: Seq[DimSpec]): DataFrame = df
}

/** Normalized Retailer: inventory fact with missing `inventoryunits`, imputed
  * by factorized MICE over the loc⋈census, item and weather dimensions.
  */
final case class RetailerFactorized(name: String, rows: Long, missingRate: Double) extends Workload {
  // Rounds here are about a quarter as long as on Flight.
  val rounds = 4
  val schema: MiceSchema = MiceSchema(Seq("inventoryunits"), Nil, Seq("inventoryunits"))
  val label = "inventoryunits"
  private val dimSchemas = Seq(
    ("loc_census", Seq("locn"),
      CofactorSchema(Seq("rgn_sales_idx", "population", "medianage", "income"), Seq("clim_zone", "urbanicity"))),
    ("item", Seq("ksn"), CofactorSchema(Seq("price"), Seq("category", "subcategory"))),
    ("weather", Seq("locn", "dateid"), CofactorSchema(Seq("maxtemp", "mintemp"), Seq("rain", "snow"))))
  // The evaluation order of the Fig 6 experiment (NormalizedExp).
  private val hierarchy = Seq(Stage(Seq("item"), Seq("locn", "dateid")), Stage(Seq("weather"), Seq("locn")),
    Stage(Seq("loc_census"), Nil))
  val downstreamSchema: CofactorSchema = dimSchemas.map(_._3).foldLeft(schema.cofactor)(_ ++ _)

  /** Dimension tables as generated alongside `Retailer.inventory(rows, seed)`. */
  override protected def dimensions(spark: SparkSession, seed: Long): Seq[DimSpec] = {
    val tables = Map(
      "loc_census" -> Retailer.location(spark, seed + 901).join(Retailer.census(spark, seed + 902), "zip"),
      "item" -> Retailer.item(spark, seed + 903),
      "weather" -> Retailer.weather(spark, seed + 904))
    dimSchemas.map { case (n, keys, s) => DimSpec(n, tables(n), keys, s) }
  }

  protected def complete(spark: SparkSession, seed: Long): DataFrame =
    Retailer.inventory(spark, rows, seed)

  def impute(in: Input, cfg: MiceConfig): MiceResult =
    FactorizedMice.impute(in.train, schema, in.dims, cfg, hierarchy)

  def downstreamView(df: DataFrame, dims: Seq[DimSpec]): DataFrame =
    dims.foldLeft(df) { (acc, d) =>
      acc.join(d.df.select((d.keys ++ d.schema.cont ++ d.schema.cat).map(col): _*), d.keys)
    }.select(downstreamSchema.cont.map(c => col(c).cast(DoubleType).as(c)) ++
      downstreamSchema.cat.map(col): _*)
}

object Workloads {
  /** Every workload `run.py` accepts. BENCHMARK.json lists the ones the
    * regression runs use; see perfbench/README.md for why flight-high80 is
    * not among them.
    */
  val all: Seq[Workload] = Seq(
    FlightSingle("flight-low5", rows = 100000, missingRate = 0.05, high = false),
    FlightSingle("flight-high80", rows = 100000, missingRate = 0.80, high = true),
    RetailerFactorized("retailer-fact20", rows = 100000, missingRate = 0.20),
  )

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $n; known: ${all.map(_.name).mkString(", ")}"))
}
