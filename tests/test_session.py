"""The session configuration of ``repro.bench.session``: every channel
between the JVM and Python is a Unix domain socket in a short directory.

The Spark test round-trips data through each channel under the session
fixture; the path tests need no Spark.
"""
from __future__ import annotations

import os
import socket
import stat
import uuid

import pandas as pd

from repro.bench.session import socket_dir

# sun_path holds 108 bytes, the last of them the terminating NUL.
UNIX_PATH_MAX = 107


def test_python_channels_round_trip(spark):
    sc = spark.sparkContext
    assert sc.getConf().get("spark.python.unix.domain.socket.enabled") == "true"
    assert sc.getConf().get("spark.python.unix.domain.socket.dir") == socket_dir()
    squares = sc.broadcast({i: i * i for i in range(100)})
    seen = sc.accumulator(0)

    def square(xs):
        for x in xs:
            seen.add(1)
            yield squares.value[x]

    assert sorted(sc.parallelize(range(100), 4).mapPartitions(square).collect()) == [
        i * i for i in range(100)
    ]
    assert seen.value == 100
    pdf = pd.DataFrame({"src": range(5000), "lbl": ["a", "b"] * 2500,
                        "dst": range(5000, 0, -1)})
    back = spark.createDataFrame(pdf).toPandas()
    pd.testing.assert_frame_equal(back, pdf, check_dtype=False)


def test_cost_based_optimizer_stays_off(spark):
    # plans._row_bound trusts Catalyst's row counts only while these are
    # off: then Catalyst counts only local, in-memory and range leaves,
    # never from table statistics an ANALYZE may have left stale.
    for key in ("spark.sql.cbo.enabled", "spark.sql.cbo.planStats.enabled"):
        assert spark.conf.get(key) == "false"


def test_socket_path_fits_with_long_tmpdir_and_cwd(tmp_path, monkeypatch):
    long = tmp_path / ("d" * (200 - len(str(tmp_path)) - 1))
    long.mkdir()
    assert len(os.fsencode(long)) == 200
    monkeypatch.setenv("TMPDIR", str(long))
    monkeypatch.chdir(long)
    path = os.path.join(socket_dir(), f".{uuid.uuid4()}.sock")  # as Spark names them
    assert len(os.fsencode(path)) <= UNIX_PATH_MAX
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.bind(path)
        os.remove(path)


def test_socket_dir_is_private():
    st = os.lstat(socket_dir())
    assert stat.S_ISDIR(st.st_mode)
    assert st.st_uid == os.getuid()
    assert st.st_mode & 0o777 == 0o700
