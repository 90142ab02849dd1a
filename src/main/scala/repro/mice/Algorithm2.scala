package repro.mice

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.ring.{Cofactor, DimSpec, Factorized, Stage, Triple}
import repro.util.Timing

/** Algorithm 2 — MICE with one shared cofactor, run as one Spark job per
  * attribute step. [[MiceLow]], [[MiceHigh]] and [[FactorizedMice]] are this
  * driver with a §4 partitioning [[Algorithm2.Rule]] and a cofactor
  * [[Algorithm2.Source]].
  *
  * Preprocessing splits the initially-imputed input in two:
  *
  *  - `p0`, the rows with no missing target. Their triple is aggregated once
  *    (`init_cofactor`) and the rows are never touched again.
  *  - the working set `W`, every other row, with a bitmask of its missing
  *    targets. `W` is small, sized to the data (at most `defaultParallelism`
  *    partitions, one [[Algorithm2.Block]] each) and locally checkpointed.
  *    Rows with every target missing (`pAll`, when there are ≥2 targets) ride
  *    along: they never train and are imputed in each round's last pass.
  *
  * The step for target `t` trains on `C_train(t)` and then makes one pass
  * over `W`, a `map` over its per-partition blocks (the `update` phase). The
  * pass writes `t`'s
  * prediction into the rows where `t` is missing, with the models' row-level
  * `predictRow`, and in the same scan folds the two triples the driver needs
  * next, returned beside the new checkpointed version of `W`:
  *
  *  - Low: `ΔC_new(t)`, the rows just imputed, and `ΔC_old(t+1)`, the rows
  *    where `t+1` is missing. `C_train(t) = C − ΔC_old(t)`, then
  *    `C = C_train(t) + ΔC_new(t)` (Alg 2, l.5–10).
  *  - High: the rows where `t+1` is observed. `C_train(t)` is that triple
  *    plus the precomputed triple of the complete rows `p0`.
  *
  * The ring ± on the driver is the `delta_cofactor` phase. The superseded
  * version of `W` is released once the next one is materialized.
  * Per-partition triples are folded in partition order, so repeated runs are
  * bit-identical.
  */
object Algorithm2 {

  /** §4 partitioning: which rows of `W` enter the training triple of a target. */
  sealed trait Rule
  /** Low missing rates: maintain `C` over every training row; subtract the
    * rows where the target is missing.
    */
  case object Low extends Rule
  /** High missing rates: add the rows where the target is observed to the
    * fixed triple of the complete rows.
    */
  case object High extends Rule

  /** Where attribute values and the init cofactor come from. */
  sealed trait Source
  /** A single table: the schema's attributes are its columns. */
  case object Flat extends Source
  /** A fact table joined N:1 to complete dimensions. The big `p0` cofactor is
    * evaluated factorized ([[Factorized.Plan]]); `W` rows get their dimension
    * attributes by lookup ([[Factorized.DimLookup]]), so a row's ΔC is `addRow`
    * over the enriched row.
    */
  final case class Normalized(dims: Seq[DimSpec], hierarchy: Seq[Stage]) extends Source

  /** `W` gets one partition per this many rows, up to `defaultParallelism`. */
  private val RowsPerPartition = 4096

  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig, rule: Rule, source: Source): MiceResult = {
    val sc = df0.sparkSession.sparkContext
    val sw = new Timing.StopWatch
    val ts = schema.targets
    require(ts.size < 64, "the missing-target bitmask holds at most 63 targets")

    var p0: DataFrame = null
    var w: RDD[Block] = null
    var layout: Layout = null
    var c: Triple = null // Low: C; High: triple of the complete rows
    var d: Triple = null // Low: ΔC_old(t); High: triple of W rows where t is observed

    val prepSecs = Timing.timed {
      val init = Imputation.prepare(df0, schema)
      val anyMissing = schema.maskCols.map(col).reduce(_ || _)
      p0 = init.filter(!anyMissing)
      val (train, cols, aggregate, lookup) = source match {
        case Flat => (schema, schema.dataCols, Cofactor.triple(_: DataFrame, schema.cofactor), None)
        case Normalized(dims, hierarchy) =>
          val plan = sw.phase("dim_partials")(
            Factorized.plan(df0.sparkSession, schema.cofactor, dims, hierarchy))
          (MiceSchema(plan.combined.cont, plan.combined.cat, ts), df0.columns.toSeq, plan.cofactor _,
            Some((plan.lookup, plan.allKeys.map(df0.columns.indexOf(_)).toArray)))
      }
      val lay = new Layout(train, cols, init.schema)
      layout = lay
      sw.phase("init_cofactor") {
        c = aggregate(p0)
        val wDf = init.filter(anyMissing).select((cols ++ schema.maskCols :+ Imputation.RowId).map(col): _*)
        val parts = math.max(1, math.min(sc.defaultParallelism,
          math.ceil(wDf.count().toDouble / RowsPerPartition).toInt))
        val factCont = schema.cont.map(cols.indexOf).toArray
        val factCat = schema.cat.map(cols.indexOf).toArray
        val built = wDf.rdd.coalesce(parts).mapPartitions { rows =>
          Iterator.single(Block.build(rows, lay, factCont, factCat, lookup))
        }
        val (v, fresh, next) = materialize(built.map(new Pass(lay, rule, -1, Array.empty, Array.empty, false)), lay)
        w = v
        if (rule == Low) c.plus(fresh)
        d = next
      }
    }._2

    val roundSecs = (0 until cfg.iterations).map { iter =>
      Timing.timed {
        val models = new Array[AttrModel](ts.size)
        val seeds = ts.map(Imputation.noiseSeed(cfg, iter, _)).toArray
        for ((t, ti) <- ts.zipWithIndex) {
          val cTrain = sw.phase("delta_cofactor")(rule match {
            case Low => c.copyTriple().minus(d)
            case High => c.copyTriple().plus(d)
          })
          models(ti) = sw.phase("train")(Imputation.train(cTrain, layout.train, t, cfg))
          val pass = new Pass(layout, rule, ti, models.clone(), seeds, cfg.stochastic)
          val (v, fresh, next) = sw.phase("update")(materialize(w.map(pass), layout))
          w.unpersist(blocking = false)
          w = v
          if (rule == Low) c = sw.phase("delta_cofactor")(cTrain.plus(fresh))
          d = next
        }
      }._2
    }

    val outCols = layout.outCols
    val wOut = df0.sparkSession.createDataFrame(w.flatMap(_.raw.iterator.map(r => Row.fromSeq(r.toSeq))),
      StructType(outCols.map(p0.schema(_))))
    MiceResult(p0.select(outCols.map(col): _*).unionByName(wOut), prepSecs, roundSecs, sw.snapshot)
  }

  /** Runs `blocks` as one Spark job: checkpoints it locally and returns it
    * with the sums of its blocks' `fresh` and `next` triples, folded in
    * partition order.
    */
  private def materialize(blocks: RDD[Block], lay: Layout): (RDD[Block], Triple, Triple) = {
    val v = blocks.localCheckpoint()
    val parts = v.map(b => (b.fresh, b.next)).collect()
    def sum(ts: Array[Triple]) = ts.foldLeft(Triple.zero(lay.k, lay.l))(_.plus(_))
    (v, sum(parts.map(_._1)), sum(parts.map(_._2)))
  }

  /** Where each target lives in a `W` row: `outCols` hold the output, the
    * features follow the training schema `train`.
    */
  private final class Layout(val train: MiceSchema, val outCols: Seq[String], types: StructType)
      extends Serializable {
    private val ts = train.targets
    val (nT, k, l) = (ts.size, train.cofactor.k, train.cofactor.l)
    val isCont: Array[Boolean] = ts.map(train.isContinuous).toArray
    /** Index into the row's `cont` or `cat` features. */
    val slot: Array[Int] =
      ts.map(t => if (train.isContinuous(t)) train.cofactor.contIdx(t) else train.cofactor.catIdx(t)).toArray
    /** Index into the row's output columns. */
    val rawIdx: Array[Int] = ts.map(outCols.indexOf(_)).toArray
    /** The value `cast(dt)` of a prediction stores in the target's column. */
    val store: Array[Double => Any] = ts.map(t => types(t).dataType match {
      case DoubleType => (v: Double) => v
      case FloatType => (v: Double) => v.toFloat
      case LongType => (v: Double) => v.toLong
      case IntegerType => (v: Double) => v.toInt
      case ShortType => (v: Double) => v.toShort
      case dt => throw new IllegalArgumentException(s"target $t has unsupported type $dt")
    }).toArray

    def missing(mask: Long, t: Int): Boolean = (mask >>> t & 1L) == 1L

    /** `pAll`: every target missing. With one target those rows are `p1`. */
    def allMissing(mask: Long): Boolean = nT >= 2 && mask == (1L << nT) - 1
  }

  /** One partition of `W` as parallel arrays. Rows are never mutated: a pass
    * copies only the rows it writes and shares the rest with the previous
    * version.
    *
    * @param raw   output columns, as the imputed table will hold them
    * @param cont  continuous features in training-schema order
    * @param cat   categorical features in training-schema order
    * @param fresh triple folded by the pass that made this version (Low: ΔC_new)
    * @param next  triple that trains the next target
    */
  private final class Block(
      val rowId: Array[Long], val miss: Array[Long], val raw: Array[Array[Any]],
      val cont: Array[Array[Double]], val cat: Array[Array[Int]],
      val fresh: Triple, val next: Triple) extends Serializable

  private object Block {

    /** Rows laid out as `outCols ++ masks :+ rowId`; features are the fact
      * attributes, cast as [[Cofactor.inputCols]] does, then the dimensions'.
      */
    def build(rows: Iterator[Row], lay: Layout, factCont: Array[Int], factCat: Array[Int],
              lookup: Option[(Factorized.DimLookup, Array[Int])]): Block = {
      val rs = rows.toArray
      val nOut = rs.headOption.fold(0)(_.length - lay.nT - 1)
      def num(v: Any): Number = v.asInstanceOf[Number]
      val raw = rs.map(r => Array.tabulate[Any](nOut)(r.get))
      val feats = raw.map { v =>
        val c = factCont.map(i => num(v(i)).doubleValue)
        val d = factCat.map(i => num(v(i)).intValue)
        lookup.fold((c, d)) { case (lk, keyIdx) => lk.enrich(c, d, keyIdx.map(i => num(v(i)).longValue)) }
      }
      val miss = rs.map(r => (0 until lay.nT).foldLeft(0L)((m, t) => if (r.getBoolean(nOut + t)) m | 1L << t else m))
      new Block(rs.map(_.getLong(nOut + lay.nT)), miss, raw, feats.map(_._1), feats.map(_._2), null, null)
    }
  }

  /** One fused Algorithm-2 step over a block (see [[Algorithm2]]). `target`
    * −1 is the build pass: no writes, `fresh` folds every training row and
    * `next` trains the first target. The round's last step also imputes
    * `pAll` rows, target by target, with the round's models.
    */
  private final class Pass(lay: Layout, rule: Rule, target: Int, models: Array[AttrModel],
                           seeds: Array[Long], stochastic: Boolean) extends (Block => Block) with Serializable {

    def apply(b: Block): Block = {
      val raw = b.raw.clone()
      val cont = b.cont.clone()
      val cat = b.cat.clone()
      val fresh = Triple.zero(lay.k, lay.l)
      val next = Triple.zero(lay.k, lay.l)
      val nextT = (target + 1) % lay.nT
      val lastStep = target == lay.nT - 1

      def write(r: Int, t: Int): Unit = {
        val v = lay.store(t)(models(t).predictRow(cont(r), cat(r), stochastic, seeds(t), b.rowId(r)))
        raw(r)(lay.rawIdx(t)) = v
        if (lay.isCont(t)) cont(r)(lay.slot(t)) = v.asInstanceOf[Number].doubleValue
        else cat(r)(lay.slot(t)) = v.asInstanceOf[Number].intValue
      }

      var r = 0
      while (r < raw.length) {
        val m = b.miss(r)
        val all = lay.allMissing(m)
        val missT = target >= 0 && lay.missing(m, target)
        val writes = if (all) lastStep else missT
        if (writes) {
          raw(r) = raw(r).clone(); cont(r) = cont(r).clone(); cat(r) = cat(r).clone()
          if (all) (0 until lay.nT).foreach(write(r, _)) else write(r, target)
        }
        if (rule == Low && !all && (target < 0 || missT)) fresh.addRow(cont(r), cat(r))
        val trainsNext = if (rule == Low) !all && lay.missing(m, nextT) else !lay.missing(m, nextT)
        if (trainsNext) next.addRow(cont(r), cat(r))
        r += 1
      }
      new Block(b.rowId, b.miss, raw, cont, cat, fresh, next)
    }
  }
}

/** Algorithm 2 for low missing rates (§4): the cofactor `C` of every row with
  * a training role is aggregated once, and each attribute step trains on
  * `C − ΔC_old(t)` and restores `C` with `ΔC_new(t)`. Both deltas, and the
  * imputation, come from one fused pass over the working set of incomplete
  * rows, so a round is |targets| Spark jobs. See [[Algorithm2]].
  */
object MiceLow {
  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig = MiceConfig()): MiceResult =
    Algorithm2.impute(df0, schema, cfg, Algorithm2.Low, Algorithm2.Flat)
}

/** MICE with the §4 partitioning for high missing rates: training for target
  * `t` adds the rows of the working set where `t` is observed, folded by the
  * previous step's fused pass, to the precomputed triple of the complete rows.
  * A round is |targets| Spark jobs. See [[Algorithm2]].
  */
object MiceHigh {
  def impute(df0: DataFrame, schema: MiceSchema, cfg: MiceConfig = MiceConfig()): MiceResult =
    Algorithm2.impute(df0, schema, cfg, Algorithm2.High, Algorithm2.Flat)
}

/** MICE over a normalized dataset (§6.3): [[MiceLow]] where the cofactor of
  * the complete fact rows is evaluated factorized — dimension partial triples
  * are built once (`dim_partials`) and the join is never materialized. Rows
  * of the working set are enriched by lookup into the broadcast partials, so
  * each attribute step is still one fused pass and one Spark job.
  *
  * Missing values live in the fact table only (as in the paper's Fig 6 setup,
  * so factorized and materialized runs impute identical cells).
  */
object FactorizedMice {

  /** @param schema    MICE layout of the *fact* attributes; targets ⊆ fact attrs.
    * @param dims      dimension tables (complete; joined N:1 on shared key names)
    * @param hierarchy optional factorized evaluation order (see [[Factorized.plan]])
    */
  def impute(fact0: DataFrame, schema: MiceSchema, dims: Seq[DimSpec],
             cfg: MiceConfig = MiceConfig(), hierarchy: Seq[Stage] = Nil): MiceResult =
    Algorithm2.impute(fact0, schema, cfg, Algorithm2.Low, Algorithm2.Normalized(dims, hierarchy))
}
