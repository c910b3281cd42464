package repro.jobs

import repro.eval.{DocTaggingEval, Tables}

/** Document tagging precision report (Sec. 5.3 in-text numbers): run the
  * pipeline, tag every generated document with concepts and events, and
  * measure per-category precision against the generator's gold attention.
  */
object DocTaggingJob {
  def main(args: Array[String]): Unit =
    JobUtil.runAndPrint("giant-doctagging", args)(res => Tables.docTaggingLines(DocTaggingEval.run(res)))
}
