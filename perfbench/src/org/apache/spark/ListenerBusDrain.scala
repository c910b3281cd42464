package org.apache.spark

/** Waits until the listener bus has delivered every event posted so far.
  *
  * Spark delivers task-end events to listeners asynchronously, so counters
  * read right after a stage returns can miss its last tasks. The bus is
  * `private[spark]`, hence this one-line bridge in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
