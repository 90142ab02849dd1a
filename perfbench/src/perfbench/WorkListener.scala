package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.storage.RDDBlockId

import scala.collection.mutable

/** One Spark job as the benchmark saw it, attributed to the program module
  * whose code submitted it. Times are epoch milliseconds.
  */
final class JobRecord(val id: Int, val module: String, val startMs: Long) {
  var endMs: Long = startMs
  var stages: Int = 0
  var tasks: Int = 0
  var failedTasks: Int = 0
  var taskRunMs: Long = 0L
  var shuffleWriteBytes: Long = 0L
  var blockBytes: Long = 0L
  def wallMs: Long = endMs - startMs
}

/** Spark work accounting from outside the program: jobs, stages, tasks,
  * shuffle bytes, executor run time, failed tasks and RDD block bytes written.
  *
  * Each job is attributed to a module from the first `repro.` frame of its
  * call site. Under Spark's asynchronous SQL execution the job's own call site
  * is a thread-pool frame, so for SQL jobs the call site is read from the
  * matching `SparkListenerSQLExecutionStart.details` instead.
  */
final class WorkListener extends SparkListener {
  import WorkListener._

  private val execModule = mutable.Map.empty[Long, String]
  private val stageJob = mutable.Map.empty[Int, JobRecord]
  private val running = mutable.LinkedHashMap.empty[Int, JobRecord]
  private val done = mutable.ArrayBuffer.empty[JobRecord]
  private var markerSeen = -1

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized { execModule(e.executionId) = moduleOf(e.details) }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    def prop(k: String): Option[String] = props.flatMap(p => Option(p.getProperty(k)))
    if (!prop("spark.jobGroup.id").contains(MarkerGroup)) {
      val module = prop("spark.sql.execution.id").flatMap(id => execModule.get(id.toLong))
        .getOrElse(moduleOf(prop("callSite.long").getOrElse("")))
      val job = new JobRecord(e.jobId, module, e.time)
      job.stages = e.stageIds.size
      e.stageIds.foreach(stageJob(_) = job)
      running(e.jobId) = job
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageJob.get(e.stageId).foreach { job =>
      job.tasks += 1
      if (!e.taskInfo.successful) job.failedTasks += 1
      Option(e.taskMetrics).foreach { m =>
        job.taskRunMs += m.executorRunTime
        job.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    running.remove(e.jobId) match {
      case Some(job) =>
        job.endMs = e.time
        done += job
      case None => markerSeen = e.jobId
    }
  }

  /** RDD blocks stored while a job runs are attributed to that job (the
    * driver submits one job at a time). Removals carry no storage level.
    */
  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    if (info.blockId.isInstanceOf[RDDBlockId] && info.storageLevel.isValid)
      running.lastOption.foreach { case (_, job) => job.blockBytes += info.memSize + info.diskSize }
  }

  /** Block until every event posted before this call has been handled: a
    * marker job runs after them, and the listener bus delivers in order.
    */
  def drain(sc: SparkContext): Unit = {
    sc.setJobGroup(MarkerGroup, "listener drain marker")
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val markerId = sc.statusTracker.getJobIdsForGroup(MarkerGroup).max
    val deadline = System.currentTimeMillis() + 60000
    while (synchronized(markerSeen) < markerId && System.currentTimeMillis() < deadline) Thread.sleep(5)
  }

  /** Finished jobs that started inside `[fromMs, toMs)`. */
  def jobsIn(fromMs: Double, toMs: Double): Seq[JobRecord] = synchronized {
    done.filter(j => j.startMs >= fromMs && j.startMs < toMs).toSeq
  }

  def allJobs: Seq[JobRecord] = synchronized(done.toSeq)
}

object WorkListener {
  val MarkerGroup = "perfbench.marker"

  /** Module of the first program frame (`repro.…`) in a call-site stack. */
  def moduleOf(stack: String): String = {
    val frame = stack.linesIterator.map(_.trim.stripPrefix("at ")).find(_.startsWith("repro."))
    frame.fold("other") { f =>
      if (f.startsWith("repro.ring.Cofactor")) "ring.cofactor"
      else if (f.startsWith("repro.ring.Factorized")) "ring.factorized"
      else if (f.startsWith("repro.mice.")) "mice"
      else f.split('.').take(2).mkString(".")
    }
  }
}
