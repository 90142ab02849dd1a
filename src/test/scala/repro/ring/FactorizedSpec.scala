package repro.ring

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{Flight, Retailer}

/** Factorized evaluation over joins: the factorized triple must equal the
  * triple over the materialized join (and the DuckDB oracle on the unpacked
  * aggregates), for both star (Flight) and snowflake (Retailer) schemas.
  */
class FactorizedSpec extends SparkSpec {

  private lazy val flights = Flight.flights(spark, 3000).cache()
  private lazy val airports = Flight.airports(spark, seed = 303 + 900)
    .toDF("origin_id", "o_lat", "o_lon", "o_elev", "o_region").cache()
  private lazy val carriers = Flight.carriers(spark, seed = 303 + 901).cache()

  private val factSchema = CofactorSchema(Seq("distance", "airtime", "depdelay"), Seq("diverted"))
  private lazy val dims = Seq(
    DimSpec("airports", airports, Seq("origin_id"),
      CofactorSchema(Seq("o_lat", "o_elev"), Seq("o_region"))),
    DimSpec("carriers", carriers, Seq("carrier_id"),
      CofactorSchema(Seq("cr_speed", "cr_avg_age"), Seq("cr_alliance"))),
  )

  test("dimension partials hold one triple per key with group counts") {
    val p = Factorized.partials(dims.head)
    assert(p.size == Flight.NumAirports)
    assert(p.values.forall(_.n == 1.0)) // airports are unique per key
  }

  test("factorized cofactor equals the triple over the materialized join") {
    val plan = Factorized.plan(spark, factSchema, dims)
    val fact = plan.cofactor(flights)
    val joined = flights.join(airports, "origin_id").join(carriers, "carrier_id")
    val mat = Cofactor.triple(joined, plan.combined)
    assert(fact.approxEquals(mat, 1e-5), s"fact.n=${fact.n} mat.n=${mat.n}")
  }

  test("combined schema orders fact attributes before dimension attributes") {
    val plan = Factorized.plan(spark, factSchema, dims)
    assert(plan.combined.cont ==
      Seq("distance", "airtime", "depdelay", "o_lat", "o_elev", "cr_speed", "cr_avg_age"))
    assert(plan.combined.cat == Seq("diverted", "o_region", "cr_alliance"))
  }

  test("factorized aggregates match the DuckDB oracle over the join") {
    import spark.implicits._
    val plan = Factorized.plan(spark, factSchema, dims)
    val t = plan.cofactor(flights)
    val iD = plan.combined.contIdx("distance")
    val iLat = plan.combined.contIdx("o_lat")
    val sparkSide = Seq((t.n, round3(t.s(iD)), round3(t.qCont(iD, iLat)))).toDF("n", "sd", "sdlat")
    Oracle.assertEquivalent(sparkSide,
      """SELECT CAST(COUNT(*) AS DOUBLE) AS n,
        |       ROUND(SUM(CAST(distance AS DOUBLE)), 3) AS sd,
        |       ROUND(SUM(CAST(distance AS DOUBLE) * CAST(o_lat AS DOUBLE)), 3) AS sdlat
        |FROM f JOIN a ON f.origin_id = a.origin_id""".stripMargin,
      "f" -> flights.select("origin_id", "distance"),
      "a" -> airports.select("origin_id", "o_lat"))
  }

  test("factorized cofactor over a filtered fact subset is consistent") {
    val plan = Factorized.plan(spark, factSchema, dims)
    val whole = plan.cofactor(flights)
    val part1 = plan.cofactor(flights.filter(col("flight_id") % 2 === 0))
    val part2 = plan.cofactor(flights.filter(col("flight_id") % 2 === 1))
    assert(part1.copyTriple().plus(part2).approxEquals(whole, 1e-5))
  }

  test("factorized cofactor of an empty fact subset is zero") {
    val plan = Factorized.plan(spark, factSchema, dims)
    val t = plan.cofactor(flights.limit(0))
    assert(t.n == 0.0)
  }

  test("enrich attaches every dimension attribute at fact cardinality") {
    // DimLookup.enrich must reproduce, value for value, the row the N:1 join yields.
    val plan = Factorized.plan(spark, factSchema, dims)
    val lookup = plan.lookup
    val c = plan.combined
    val joined = flights.limit(100).join(airports, "origin_id").join(carriers, "carrier_id")
      .select((plan.allKeys ++ c.cont ++ c.cat).map(col(_)): _*).collect()
    assert(joined.length == 100)
    for (r <- joined) {
      val keys = plan.allKeys.indices.map(r.getInt(_).toLong).toArray
      val fc = factSchema.cont.indices.map(i => r.getDouble(keys.length + i)).toArray
      val fd = factSchema.cat.indices.map(j => r.getInt(keys.length + c.k + j)).toArray
      val (ec, ed) = lookup.enrich(fc, fd, keys)
      assert(ec.toSeq == c.cont.indices.map(i => r.getDouble(keys.length + i)))
      assert(ed.toSeq == c.cat.indices.map(j => r.getInt(keys.length + c.k + j)))
    }
  }

  test("hierarchical plan matches the default plan and the materialized join") {
    val hierarchy = Seq(Stage(Seq("carriers"), Seq("origin_id")), Stage(Seq("airports"), Nil))
    val hPlan = Factorized.plan(spark, factSchema, dims, hierarchy)
    // Stage order puts carriers before airports in the combined layout.
    assert(hPlan.combined.cont ==
      Seq("distance", "airtime", "depdelay", "cr_speed", "cr_avg_age", "o_lat", "o_elev"))
    val hT = hPlan.cofactor(flights)
    val joined = flights.join(airports, "origin_id").join(carriers, "carrier_id")
    val mat = Cofactor.triple(joined, hPlan.combined)
    assert(hT.approxEquals(mat, 1e-5), s"hier.n=${hT.n} mat.n=${mat.n}")
  }

  test("hierarchical plan rejects a stage whose keys are unavailable") {
    // airports (keyed by origin_id) cannot multiply after grouping by carrier-only keys.
    val bad = Seq(Stage(Seq("carriers"), Seq("carrier_id")), Stage(Seq("airports"), Nil))
    val p = Factorized.plan(spark, factSchema, dims, bad)
    intercept[IllegalArgumentException](p.cofactor(flights))
  }

  test("hierarchy must cover every dimension exactly once") {
    intercept[IllegalArgumentException](
      Factorized.plan(spark, factSchema, dims, Seq(Stage(Seq("carriers"), Nil))))
  }

  test("snowflake factorization (Retailer) matches the materialized join") {
    val inv = Retailer.inventory(spark, 2000).cache()
    val loc = Retailer.location(spark, seed = 555 + 901).join(Retailer.census(spark, seed = 555 + 902), "zip").cache()
    val it = Retailer.item(spark, seed = 555 + 903).cache()
    val w = Retailer.weather(spark, seed = 555 + 904).cache()
    val factSch = CofactorSchema(Seq("inventoryunits"), Nil)
    val rdims = Seq(
      DimSpec("loc_census", loc, Seq("locn"),
        CofactorSchema(Seq("rgn_sales_idx", "population", "medianage", "income"),
          Seq("clim_zone", "urbanicity"))),
      DimSpec("item", it, Seq("ksn"), CofactorSchema(Seq("price"), Seq("category", "subcategory"))),
      DimSpec("weather", w, Seq("locn", "dateid"),
        CofactorSchema(Seq("maxtemp", "mintemp"), Seq("rain", "snow"))),
    )
    val plan = Factorized.plan(spark, factSch, rdims)
    val fct = plan.cofactor(inv)
    val joined = inv.join(loc, "locn").join(it, "ksn").join(w, Seq("locn", "dateid"))
    val mat = Cofactor.triple(joined, plan.combined)
    assert(fct.approxEquals(mat, 1e-5), s"fact.n=${fct.n} mat.n=${mat.n}")

    // The 3-level hierarchical order gives the same triple (modulo attr order).
    val hier = Seq(Stage(Seq("item"), Seq("locn", "dateid")),
      Stage(Seq("weather"), Seq("locn")), Stage(Seq("loc_census"), Nil))
    val hPlan = Factorized.plan(spark, factSch, rdims, hier)
    val hT = hPlan.cofactor(inv)
    val hMat = Cofactor.triple(joined, hPlan.combined)
    assert(hT.approxEquals(hMat, 1e-5), s"hier.n=${hT.n} mat.n=${hMat.n}")
  }

  private def round3(v: Double): Double = math.rint(v * 1e3) / 1e3
}
