package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Engine counters at one instant: Spark totals from [[SparkCounters]] plus
  * the JVM's own garbage-collection time. Differences of two snapshots give
  * the counters of the span between them.
  */
final case class Counts(jobs: Long, tasks: Long, taskS: Double, taskGcS: Double,
                        shuffleBytes: Long, resultBytes: Long, jvmGcS: Double) {
  def -(o: Counts): Counts = Counts(jobs - o.jobs, tasks - o.tasks, taskS - o.taskS,
    taskGcS - o.taskGcS, shuffleBytes - o.shuffleBytes, resultBytes - o.resultBytes,
    jvmGcS - o.jvmGcS)
}

/** Sums Spark jobs, tasks, executor run time, executor GC time, shuffle
  * bytes written and task result bytes. Registered only in traced runs.
  */
final class SparkCounters extends SparkListener {
  private val jobs = new AtomicLong
  private val tasks = new AtomicLong
  private val runMs = new AtomicLong
  private val gcMs = new AtomicLong
  private val shuffleBytes = new AtomicLong
  private val resultBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      runMs.addAndGet(m.executorRunTime)
      gcMs.addAndGet(m.jvmGCTime)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      resultBytes.addAndGet(m.resultSize)
    }
  }

  /** Counters after every event posted so far has been delivered. */
  def snapshot(sc: SparkContext): Counts = {
    ListenerBusDrain(sc)
    Counts(jobs.get, tasks.get, runMs.get / 1e3, gcMs.get / 1e3,
      shuffleBytes.get, resultBytes.get, Jvm.gcSeconds())
  }
}

object Jvm {
  /** Total time all collectors have spent, in seconds. */
  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime max 0L).sum / 1e3

  /** Heap in use after a full collection, in MB. */
  def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def maxHeapMb(): Double = Runtime.getRuntime.maxMemory / (1024.0 * 1024.0)

  /** Seconds since this JVM started. */
  def uptimeS(): Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
}
