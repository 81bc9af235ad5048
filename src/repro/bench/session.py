"""The one SparkSession configuration of the repo: spark-submit jobs,
perfbench and the test fixture all build their session here.

Broadcast joins are disabled so the shuffle path is exercised; Arrow is
on for mapInPandas; Python workers are started by
``repro.bench.worker_daemon``. Every channel between the JVM and Python
(worker tasks, ``toPandas``/``createDataFrame`` transfers, the
accumulator server) is a Unix domain socket in :func:`socket_dir`. Over
loopback TCP, each Python task stalled about 42 ms when it finished.
"""
from __future__ import annotations

import os
import stat
from collections.abc import Iterator
from contextlib import contextmanager

from pyspark.sql import SparkSession

from repro.bench.worker_daemon import DAEMON_MODULE


def socket_dir() -> str:
    """A short directory, private to this user, for Spark's sockets.

    Spark names each socket ``<dir>/.<uuid4>.sock``, 43 bytes after
    ``<dir>``, and an AF_UNIX path holds at most 107 bytes. By default
    ``<dir>`` is ``java.io.tmpdir``, which may be deep in a checkout
    (perfbench puts it there). So the directory depends on neither the
    working directory nor ``TMPDIR``. PySpark's workers skip their
    authentication over a Unix socket, so the directory must be the
    user's own and closed to everyone else.
    """
    path = f"/tmp/repro-spark-{os.getuid()}"
    os.makedirs(path, 0o700, exist_ok=True)
    st = os.lstat(path)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid() or st.st_mode & 0o077:
        raise RuntimeError(f"{path} must be a directory of uid {os.getuid()} with mode 0700")
    return path


def get_spark(app: str, shuffle_partitions: int = 16) -> SparkSession:
    """The session, with ``SPARK_SHUFFLE_PARTITIONS`` (if set) overriding
    ``shuffle_partitions``. Master and driver memory come from
    ``PYSPARK_SUBMIT_ARGS`` or spark-submit."""
    s = (
        SparkSession.builder.appName(f"repro-{app}")
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", str(shuffle_partitions)))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.python.daemon.module", DAEMON_MODULE)
        .config("spark.python.unix.domain.socket.enabled", "true")
        .config("spark.python.unix.domain.socket.dir", socket_dir())
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


@contextmanager
def spark_session(app: str) -> Iterator[SparkSession]:
    """:func:`get_spark` for a job, stopped when the job ends. A process
    that exits with its session running leaves a socket file behind in
    :func:`socket_dir`."""
    s = get_spark(app)
    try:
        yield s
    finally:
        s.stop()
