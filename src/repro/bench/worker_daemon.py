"""PySpark's worker daemon, run without Spark's archives on the path.

Spark starts its Python workers with the archives of ``$SPARK_HOME`` on
``PYTHONPATH``: ``python/lib/pyspark.zip``, the py4j zip and the
spark-core jar. Before every task, PySpark's worker calls
``importlib.invalidate_caches()`` (``worker_util.setup_spark_files``),
and every cached ``zipimporter`` then re-reads its archive's directory
(thousands of entries), which is most of a short task's time.

When the ``pyspark`` and ``py4j`` found outside ``$SPARK_HOME`` have the
versions of those inside it, this module drops the entries under
``$SPARK_HOME`` from ``sys.path`` and every ``zipimporter`` from
``sys.path_importer_cache`` (``invalidate_caches`` walks that cache, not
``sys.path``), then runs ``pyspark.daemon.manager()``. The workers it
forks inherit the cleaned path. On any other installation it leaves the
path as Spark built it.

Spark runs it as ``python -m repro.bench.worker_daemon`` when a session
sets ``spark.python.daemon.module`` to :data:`DAEMON_MODULE`, as
``repro.bench.session.get_spark`` does for every session of the repo.
The workers must be able to import ``repro``, as they must for the
program's ``mapInPandas`` tasks anyway.

Only the standard library is imported before the path is cleaned.
"""
from __future__ import annotations

import os
import re
import sys
import zipfile
import zipimport

DAEMON_MODULE = "repro.bench.worker_daemon"

_VERSION = re.compile(r"""^__version__\s*(?::\s*str\s*)?=\s*['"]([^'"]+)['"]""", re.M)


def _version(entries: list[str], pkg: str) -> str | None:
    """``__version__`` in ``<pkg>/version.py`` of the first of ``entries``
    (directories or zip archives) that has that file."""
    for entry in entries:
        try:
            if os.path.isdir(entry or "."):
                with open(os.path.join(entry, pkg, "version.py"), encoding="utf-8") as f:
                    text = f.read()
            else:
                with zipfile.ZipFile(entry) as z:
                    text = z.read(f"{pkg}/version.py").decode("utf-8")
        except (OSError, KeyError, zipfile.BadZipFile):
            continue
        m = _VERSION.search(text)
        return m.group(1) if m else None
    return None


def spark_free_path(path: list[str], spark_home: str | None) -> list[str]:
    """``path`` without its entries under ``spark_home``, if the pyspark
    and py4j found in the other entries have the versions of those found
    under it; else ``path`` unchanged."""
    if not spark_home:
        return list(path)
    home = os.path.realpath(spark_home)

    def under_home(entry: str) -> bool:
        return os.path.commonpath([home, os.path.realpath(entry or ".")]) == home

    spark = [e for e in path if under_home(e)]
    rest = [e for e in path if not under_home(e)]
    for pkg in ("pyspark", "py4j"):
        installed = _version(rest, pkg)
        if installed is None or installed != _version(spark, pkg):
            return list(path)
    return rest


def main() -> None:
    path = spark_free_path(sys.path, os.environ.get("SPARK_HOME"))
    if path != sys.path:
        sys.path[:] = path
        for key, finder in list(sys.path_importer_cache.items()):
            if isinstance(finder, zipimport.zipimporter):
                del sys.path_importer_cache[key]
    from pyspark import daemon

    daemon.manager()


if __name__ == "__main__":
    main()
