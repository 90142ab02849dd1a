package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.eval.Metrics
import repro.mice.{MiceConfig, MiceResult}

import scala.collection.immutable.VectorMap
import scala.util.Try

/** The imputation benchmark: a closed loop of one client running one MICE
  * imputation at a time through a public driver, on `local[cores]`.
  *
  * Usage: `Bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --cores <n> --trace-dir <dir>`. The last line of standard output is the
  * JSON result; with `--trace 1` the per-layer metrics and the spans are also
  * written to `<trace-dir>/<workload>-seed<n>.json`.
  */
object Bench {

  /** Input set-up is repeated and its median reported, so one slow
    * repetition (the first pays for JIT and class loading) does not set the figure.
    */
  val SetupReps = 3
  /** Rows of the input slice the warm-up imputes. */
  val WarmRows = 4000
  private val MB = 1024.0 * 1024.0

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, cores: Int, traceDir: String)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      need("cores").toInt, need("trace-dir"))
  }

  /** What one imputation produced, for the end-to-end and per-layer metrics. */
  final case class Imputation(startMs: Double, result: MiceResult, imputeS: Double, checked: Try[Double]) {
    def ok: Boolean = checked.isSuccess
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = Workloads.byName(args.workload)
    val spark = SparkSession.builder
      .master(s"local[${args.cores}]")
      .appName(s"perfbench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // The session settings of the experiment mains (jobs/Jobs.scala).
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    val code = try { run(spark, w, args); 0 } catch {
      case e: Throwable => e.printStackTrace(); 1
    } finally spark.stop()
    sys.exit(code)
  }

  def run(spark: SparkSession, w: Workload, args: Args): Unit = {
    val sc = spark.sparkContext
    val tracer = new Tracer(args.trace)
    val listener = if (args.trace) Some(new WorkListener) else None
    listener.foreach(sc.addSparkListener)
    val cfg = MiceConfig(iterations = w.rounds, seed = args.seed)

    // Set-up: inputs from the seed, cached; repeated, and the median kept.
    // Each repetition builds the same cached plans, so the previous copy is
    // released first or the new one would be served from it.
    var held: Option[Input] = None
    val prepared = (1 to SetupReps).map { rep =>
      held.foreach(_.release())
      val t0 = System.nanoTime()
      held = Some(tracer.span("setup", Map("rep" -> rep))(w.prepare(spark, args.seed)))
      (System.nanoTime() - t0) / 1e9
    }
    val in = held.get
    // Warm-up: a single-round imputation of a slice of the input, so that JIT
    // compilation, class loading and code generation of the driver's plans
    // are done before any timing. The slice is one partition: the plans are
    // the same, the per-task cost is not paid.
    val warmT0 = System.nanoTime()
    tracer.span("warmup") {
      val slice = new Input(in.train.limit(WarmRows), in.test, in.dims, WarmRows, in.labelStd, in.catDomains, Nil)
      w.impute(slice, cfg.copy(iterations = 1)).imputed.write.format("noop").mode("overwrite").save()
    }
    val warmS = (System.nanoTime() - warmT0) / 1e9
    val setupS = Stats.median(prepared) + warmS

    val heldBefore = heldBytes(spark) / MB

    // Measure: closed loop, at least one imputation.
    val deadline = System.nanoTime() + args.seconds * 1000000000L
    val runs = Seq.newBuilder[Imputation]
    val retained = Seq.newBuilder[Double]
    do {
      runs += imputeOnce(w, in, cfg, tracer)
      retained += tracer.span("release")(heldBytes(spark)) / MB
    } while (System.nanoTime() < deadline)
    val imps = runs.result()
    imps.filterNot(_.ok).foreach(i => System.err.println(s"output check failed: ${i.checked.failed.get}"))

    val failed = imps.count(!_.ok)
    val good = imps.filter(_.ok)
    def med(f: Imputation => Double): Double = Stats.median((if (good.nonEmpty) good else imps).map(f))

    val endToEnd = VectorMap(
      "setup_s" -> (setupS, "s"),
      "prep_s" -> (med(_.result.preprocessSecs), "s"),
      "round_s" -> (med(i => Stats.median(i.result.roundSecs)), "s"),
      "impute_s" -> (med(_.imputeS), "s"),
      "downstream_nrmse" -> (med(_.checked.getOrElse(Double.NaN)), "ratio"),
      "retained_mb" -> (Stats.median(retained.result()), "MB"),
      "ops_ok" -> ((imps.size - failed).toDouble / imps.size, "ratio"),
    )

    val metrics: VectorMap[String, (Double, String)] = listener match {
      case None => endToEnd
      case Some(l) =>
        l.drain(sc)
        val micro = tracer.span("micro")(Micro.run(args.seed))
        val layer = Layers.perLayer(l, imps, args.cores) ++
          micro.map { case (k, v) => k -> (v, Layers.unitOf(k)) } ++
          VectorMap(
            "data.gen_s" -> (Stats.median(prepared), "s"),
            "trace.impute_s" -> (med(_.imputeS), "s"))
        tracer.addChildren(l.allJobs.map(j => (s"spark.job.${j.module}", j.startMs.toDouble, j.endMs.toDouble,
          Map[String, Any]("job" -> j.id, "tasks" -> j.tasks, "shuffle_bytes" -> j.shuffleWriteBytes,
            "block_bytes" -> j.blockBytes))))
        writeTrace(args, w, spark, layer, tracer)
        layer
    }

    println(s"workload ${w.name}: ${w.rows} rows, ${(w.missingRate * 100).round}% MCAR on " +
      s"${w.schema.targets.size} targets, ${in.train.rdd.getNumPartitions} input partitions, ${w.rounds} rounds, " +
      s"local[${args.cores}], seed ${args.seed}")
    println(f"block manager: $heldBefore%.3f MB held before imputing (the cached input), " +
      f"${retained.result().last}%.3f MB after the last imputation was released")
    imps.zipWithIndex.foreach { case (i, n) =>
      println(f"imputation ${n + 1}: impute ${i.imputeS}%.3f s, prep ${i.result.preprocessSecs}%.3f s, " +
        s"rounds ${i.result.roundSecs.map(r => f"$r%.3f").mkString(" ")} s, check " +
        i.checked.fold(e => s"FAILED (${e.getMessage})", n => f"ok (nrmse $n%.4f)"))
    }
    metrics.foreach { case (k, (v, u)) => println(f"  $k%-36s $v%14.6f $u") }
    println(Json(VectorMap(
      "correct" -> (failed == 0),
      "attempted" -> imps.size,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> VectorMap("value" -> v, "unit" -> u) })))
  }

  /** One closed-loop operation: impute, materialize the output, check it. */
  def imputeOnce(w: Workload, in: Input, cfg: MiceConfig, tracer: Tracer): Imputation =
    tracer.span("impute") {
      val startMs = tracer.nowMs
      val t0 = System.nanoTime()
      val res = tracer.span(s"driver.${w.name}") {
        val r = w.impute(in, cfg)
        r.imputed.write.format("noop").mode("overwrite").save()
        r
      }
      val imputeS = (System.nanoTime() - t0) / 1e9
      val checked = tracer.span("check")(Try(Checks.verify(w, in, res.imputed)))
      Imputation(startMs, res.copy(imputed = null), imputeS, checked)
    }

  /** Block-manager storage bytes in use once unreferenced data is collected:
    * GC, then poll until the context cleaner has settled.
    */
  def heldBytes(spark: SparkSession): Double = {
    def used: Long = spark.sparkContext.getExecutorMemoryStatus.values.map { case (max, free) => max - free }.sum
    var prev = -1L
    var cur = used
    var polls = 0
    while (cur != prev && polls < 20) {
      System.gc()
      Thread.sleep(150)
      prev = cur
      cur = used
      polls += 1
    }
    cur.toDouble
  }

  private def writeTrace(args: Args, w: Workload, spark: SparkSession,
                         layer: VectorMap[String, (Double, String)], tracer: Tracer): Unit = {
    val dir = new java.io.File(args.traceDir)
    dir.mkdirs()
    val machine = VectorMap(
      "cores" -> args.cores,
      "heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "spark" -> spark.version,
      "java" -> System.getProperty("java.version"),
      "os" -> s"${System.getProperty("os.name")} ${System.getProperty("os.arch")}")
    val doc = VectorMap(
      "workload" -> w.name, "seed" -> args.seed, "rows" -> w.rows, "rounds" -> w.rounds, "machine" -> machine,
      "metrics" -> layer.map { case (k, (v, u)) => k -> VectorMap("value" -> v, "unit" -> u) },
      "spans" -> tracer.all)
    val f = new java.io.File(dir, s"${w.name}-seed${args.seed}.json")
    val out = new java.io.PrintWriter(f, "UTF-8")
    try out.println(Json(doc)) finally out.close()
    System.err.println(s"trace written to ${f.getPath}")
  }
}

/** The output check every imputation must pass. */
object Checks {

  /** Throws on a bad output; returns the downstream NRMSE otherwise. */
  def verify(w: Workload, in: Input, out: DataFrame): Double = {
    val doubles = out.schema.fields.filter(_.dataType == DoubleType).map(_.name).toSeq
    val cats = in.catDomains.toSeq
    val aggs = Seq(count(lit(1)).as("rows")) ++
      w.schema.targets.map(t => sum(col(t).isNull.cast("long")).as(s"null_$t")) ++
      doubles.map(c => sum((isnan(col(c)) || col(c).isin(Double.PositiveInfinity, Double.NegativeInfinity))
        .cast("long")).as(s"nonfinite_$c")) ++
      cats.map { case (t, dom) => sum((!col(t).isin(dom: _*)).cast("long")).as(s"outside_domain_$t") }
    val row = out.agg(aggs.head, aggs.tail: _*).head()
    val rows = row.getLong(0)
    require(rows == in.trainRows, s"row count changed: ${in.trainRows} in, $rows out")
    val bad = row.schema.fieldNames.zipWithIndex.drop(1).collect {
      case (n, i) if !row.isNullAt(i) && row.getLong(i) != 0 => s"$n=${row.getLong(i)}"
    }
    require(bad.isEmpty, s"bad output values: ${bad.mkString(", ")}")
    val d = Metrics.downstream(w.downstreamView(out, in.dims), in.test, w.downstreamSchema, w.label)
    val nrmse = d.rmse / in.labelStd
    require(!nrmse.isNaN && !nrmse.isInfinite, s"downstream NRMSE is not finite: $nrmse")
    nrmse
  }
}
