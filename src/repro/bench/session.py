"""SparkSession for spark-submit jobs (tests use the conftest fixture).

Same configuration as the test fixture: broadcast joins disabled so the
shuffle path is exercised; Arrow on for mapInPandas; Python workers
started by ``repro.bench.worker_daemon``.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

from repro.bench.worker_daemon import DAEMON_MODULE


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(f"repro-{app}")
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.python.daemon.module", DAEMON_MODULE)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
