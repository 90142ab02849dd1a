package repro

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block of code starts. Listener events arrive
  * asynchronously, so each count is fenced by a marker job: once the listener
  * has seen the marker start, it has seen every job started before it.
  */
final class JobCounter(spark: SparkSession) extends SparkListener {
  private val MarkerKey = "repro.jobcounter.marker"
  private val jobs = new AtomicInteger
  private val markers = ConcurrentHashMap.newKeySet[String]()

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(MarkerKey))) match {
      case Some(m) => markers.add(m)
      case None => jobs.incrementAndGet()
    }

  private def fence(): Unit = {
    val sc = spark.sparkContext
    val id = java.util.UUID.randomUUID().toString
    sc.setLocalProperty(MarkerKey, id)
    try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(MarkerKey, null)
    val deadline = System.currentTimeMillis() + 60000
    while (!markers.contains(id) && System.currentTimeMillis() < deadline) Thread.sleep(5)
    assert(markers.contains(id), "the listener never saw the marker job")
  }

  /** Spark jobs started by `f`. */
  def count(f: => Any): Int = {
    spark.sparkContext.addSparkListener(this)
    try {
      fence()
      val before = jobs.get
      f
      fence()
      jobs.get - before
    } finally spark.sparkContext.removeSparkListener(this)
  }
}

object JobCounter {

  /** Spark jobs per MICE round: a run of 3 rounds minus a run of 1, over 2,
    * so the preprocessing cancels out.
    */
  def perRound(spark: SparkSession)(impute: Int => Any): Double = {
    val counter = new JobCounter(spark)
    (counter.count(impute(3)) - counter.count(impute(1))) / 2.0
  }
}
