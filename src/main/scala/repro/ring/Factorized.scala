package repro.ring

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Encoders}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions._

/** A dimension table in a star/snowflake schema, joined to the fact table N:1
  * on `keys` (column names shared between fact and dimension — rename
  * upstream if needed).
  */
final case class DimSpec(name: String, df: DataFrame, keys: Seq[String], schema: CofactorSchema)

/** One level of a factorized evaluation order: multiply the named dimensions
  * into the current partial triples (each dimension's keys must be available
  * at this level), then re-group by `nextKeys` (empty = final global sum).
  */
final case class Stage(dimNames: Seq[String], nextKeys: Seq[String])

/** Factorized evaluation of the cofactor aggregate over joins (§5.1): partial
  * triples are aggregated per join key *inside* each dimension once — pushing
  * the ring SUM past the join, exploiting distributivity of *ᴿ over +ᴿ — and
  * the fact side is reduced level-by-level along a variable order
  * ([[Stage]]s): fact records collapse into per-key groups *before* the wide
  * dimensions are multiplied in, so a dimension's attributes are touched once
  * per key group rather than once per fact row. The wide join result is never
  * materialized.
  *
  * Dimension partials are collected and broadcast — dimensions are small
  * relative to the fact table (the regime where factorization wins, §6.1).
  */
object Factorized {

  /** Per-key partial triples of one dimension, as a broadcast-ready map. */
  def partials(dim: DimSpec): Map[Seq[Long], Triple] = {
    val parts = Cofactor.partialTriples(dim.df, dim.keys, dim.schema)
    val keyCols = dim.keys.map(k => col(k).cast("long"))
    parts.select((keyCols :+ col("__triple")): _*).collect().map { r =>
      val key = dim.keys.indices.map(r.getLong(_))
      key -> Triple.fromBytes(r.getAs[Array[Byte]](dim.keys.size))
    }.toMap
  }

  /** Precomputed state for factorized aggregations over the same dimensions:
    * the dimensions are complete and never change, so their partials are
    * built and broadcast once, for [[cofactor]] and for [[lookup]].
    */
  final class Plan(
      val factSchema: CofactorSchema,
      orderedDims: Seq[DimSpec],
      stages: Seq[Stage],
      bcasts: Map[String, Broadcast[Map[Seq[Long], Triple]]],
  ) extends Serializable {

    /** Combined attribute layout: fact attrs first, then dims in stage order. */
    val combined: CofactorSchema = orderedDims.map(_.schema).foldLeft(factSchema)(_ ++ _)

    /** Fact-side key columns, in the order [[DimLookup.enrich]] reads them. */
    val allKeys: Seq[String] = orderedDims.flatMap(_.keys).distinct

    /** Factorized cofactor triple of a fact-side subset, along the staged
      * evaluation order (wide dims multiply once per key group).
      */
    def cofactor(factPart: DataFrame): Triple = {
      implicit val tripleEnc: Encoder[Triple] = Encoders.javaSerialization[Triple]
      implicit val ktEnc: Encoder[(String, Triple)] =
        Encoders.tuple(Encoders.STRING, tripleEnc)
      implicit val rowEnc: Encoder[(Array[Double], Array[Int], Array[Long])] =
        Encoders.tuple(ExprEncoders.doubleArray, ExprEncoders.intArray, ExprEncoders.longArray)

      val (c, d) = Cofactor.inputCols(factSchema)
      val keyCols = array(allKeys.map(col(_).cast("long")): _*)
      val ds = factPart.select(c.as("c"), d.as("d"), keyCols.as("ks"))
        .as[(Array[Double], Array[Int], Array[Long])]

      // Stage 0: lift each fact record, multiply this level's dims per row,
      // and pre-aggregate into groups keyed by the stage's nextKeys.
      val s0 = stages.head
      val s0dims = s0.dimNames.map(n => orderedDims.find(_.name == n).get)
      val s0keyIdx = s0dims.map(_.keys.map(allKeys.indexOf).toArray).toArray
      val s0arity = s0dims.map(dm => (dm.schema.k, dm.schema.l)).toArray
      val s0maps = s0dims.map(dm => bcasts(dm.name)).toArray
      val nextIdx0 = s0.nextKeys.map(allKeys.indexOf).toArray
      val kf = factSchema.k; val lf = factSchema.l
      val arity0 = s0dims.map(_.schema).foldLeft(factSchema)(_ ++ _)
      val (k0, l0) = (arity0.k, arity0.l)

      def liftTimesStage0(row: (Array[Double], Array[Int], Array[Long])): Triple = {
        var t = Triple.lift(kf, lf, row._1, row._2)
        var i = 0
        while (i < s0maps.length) {
          val key: Seq[Long] = s0keyIdx(i).map(row._3(_)).toSeq
          t = t.times(s0maps(i).value.getOrElse(key, Triple.one(s0arity(i)._1, s0arity(i)._2)))
          i += 1
        }
        t
      }

      var cur: Dataset[(String, Triple)] =
        if (nextIdx0.isEmpty) {
          // No grouping: one global typed aggregation (partial per partition,
          // no sort, no per-group buffer shuffling).
          val agg = new Aggregator[(Array[Double], Array[Int], Array[Long]), Triple, Triple] {
            override def zero: Triple = Triple.zero(k0, l0)
            override def reduce(b: Triple, row: (Array[Double], Array[Int], Array[Long])): Triple =
              b.plus(liftTimesStage0(row))
            override def merge(b1: Triple, b2: Triple): Triple = b1.plus(b2)
            override def finish(r: Triple): Triple = r
            override def bufferEncoder: Encoder[Triple] = Encoders.javaSerialization[Triple]
            override def outputEncoder: Encoder[Triple] = Encoders.javaSerialization[Triple]
          }
          ds.select(agg.toColumn).map(t => ("", t))
        } else {
          // Grouped: colocate rows by group key with one compact-row shuffle,
          // then aggregate each partition's groups in a local hash map —
          // avoiding Catalyst's sort-aggregate over opaque typed buffers.
          val rdd = ds.rdd
            .map(row => (nextIdx0.map(row._3(_)).mkString(":"), row))
            .partitionBy(new org.apache.spark.HashPartitioner(
              factPart.sparkSession.sparkContext.defaultParallelism))
            .mapPartitions { it =>
              val acc = scala.collection.mutable.HashMap.empty[String, Triple]
              for ((key, row) <- it)
                acc.getOrElseUpdate(key, Triple.zero(k0, l0)).plus(liftTimesStage0(row))
              acc.iterator
            }
          factPart.sparkSession.createDataset(rdd)(ktEnc)
        }
      var curKeys: Seq[String] = s0.nextKeys

      // Later stages: multiply in this level's dims (one lookup per *group*),
      // then re-group by the next key set.
      for (stage <- stages.tail) {
        val sdims = stage.dimNames.map(n => orderedDims.find(_.name == n).get)
        val keyIdx = sdims.map(_.keys.map(curKeys.indexOf).toArray).toArray
        require(keyIdx.forall(_.forall(_ >= 0)),
          s"stage dims ${stage.dimNames} need keys within $curKeys")
        val arity = sdims.map(dm => (dm.schema.k, dm.schema.l)).toArray
        val maps = sdims.map(dm => bcasts(dm.name)).toArray
        val nextIdx = stage.nextKeys.map(curKeys.indexOf).toArray
        require(nextIdx.forall(_ >= 0), s"nextKeys ${stage.nextKeys} must be within $curKeys")

        val mult: Dataset[(String, Triple)] = cur.map { case (keyStr, t0) =>
          val keyVals = if (keyStr.isEmpty) Array.empty[Long] else keyStr.split(':').map(_.toLong)
          var t = t0
          var i = 0
          while (i < maps.length) {
            val key: Seq[Long] = keyIdx(i).map(keyVals(_)).toSeq
            t = t.times(maps(i).value.getOrElse(key, Triple.one(arity(i)._1, arity(i)._2)))
            i += 1
          }
          (nextIdx.map(keyVals(_)).mkString(":"), t)
        }
        cur = mult.groupByKey(_._1)(Encoders.STRING)
          .reduceGroups((a, b) => (a._1, a._2.plus(b._2)))
          .map(_._2)
        curKeys = stage.nextKeys
      }
      require(curKeys.isEmpty, "the last stage must group down to a single global triple")
      val out = cur.collect()
      if (out.isEmpty) Triple.zero(combined.k, combined.l)
      else out.map(_._2).reduce(_.plus(_))
    }

    /** Row-level enrichment by lookup into the broadcast dimension partials. */
    def lookup: DimLookup =
      new DimLookup(orderedDims.map(_.keys.map(allKeys.indexOf).toArray).toArray,
        orderedDims.map(dm => bcasts(dm.name)).toArray)
  }

  /** Attaches every dimension's attributes to a fact row. Each fact row joins
    * one row per dimension (N:1), whose per-key partial triple is that row
    * lifted: `s` holds its continuous values and each `scat` map its one
    * category. So no join is needed, only a lookup in the broadcast partials.
    */
  final class DimLookup private[Factorized] (
      keyIdx: Array[Array[Int]],
      maps: Array[Broadcast[Map[Seq[Long], Triple]]],
  ) extends Serializable {

    /** The fact row's `(cont, cat)` followed by each dimension's attributes,
      * in [[Plan.combined]] order. `keys` holds the row's [[Plan.allKeys]] values.
      */
    def enrich(cont: Array[Double], cat: Array[Int], keys: Array[Long]): (Array[Double], Array[Int]) = {
      var c = cont
      var d = cat
      var i = 0
      while (i < maps.length) {
        val key: Seq[Long] = keyIdx(i).map(keys(_)).toSeq
        val t = maps(i).value.getOrElse(key,
          throw new IllegalArgumentException(s"no dimension row for key $key"))
        require(t.n == 1.0, s"key $key matches ${t.n} dimension rows; enrichment needs an N:1 join")
        c = c ++ t.s
        d = d ++ t.scat.map(_.keysIterator.next())
        i += 1
      }
      (c, d)
    }
  }

  /** Build a [[Plan]]. `hierarchy` gives the evaluation order; by default all
    * dimensions multiply at stage 0 (per fact row) and everything sums to one
    * group — correct for any schema, but without group-level sharing. Passing
    * a real hierarchy (e.g. narrow dims at stage 0, wide dims at coarser
    * levels) is what makes factorization pay off on dim-heavy schemas.
    *
    * The combined attribute order follows the stage order, i.e.
    * `fact ++ stages.flatMap(dims)`.
    */
  def plan(spark: org.apache.spark.sql.SparkSession, factSchema: CofactorSchema,
           dims: Seq[DimSpec], hierarchy: Seq[Stage] = Nil): Plan = {
    val stages = if (hierarchy.nonEmpty) hierarchy else Seq(Stage(dims.map(_.name), Nil))
    val stageNames = stages.flatMap(_.dimNames)
    require(stageNames.sorted == dims.map(_.name).sorted,
      s"hierarchy must cover every dim exactly once: $stageNames vs ${dims.map(_.name)}")
    require(stages.last.nextKeys.isEmpty, "the final stage must have no nextKeys")
    val ordered = stageNames.map(n => dims.find(_.name == n).get)
    val bcasts = dims.map(d => d.name -> spark.sparkContext.broadcast(partials(d))).toMap
    new Plan(factSchema, ordered, stages, bcasts)
  }
}
