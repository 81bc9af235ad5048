"""The worker daemon that starts PySpark's workers without Spark's archives.

The Spark tests run a Python task under the session fixture and check
what its worker imported and which transport it uses; the path-filter tests run on made-up
installations under ``tmp_path``.
"""
from __future__ import annotations

import os
import zipfile

import pyspark
import pytest

from repro.bench.worker_daemon import spark_free_path


def test_worker_imports_installed_pyspark(spark):
    def report(_):
        import os
        import sys
        import zipimport

        import pyspark

        home = os.path.realpath(os.environ["SPARK_HOME"])
        yield {
            "zipimporters": [
                k for k, v in sys.path_importer_cache.items()
                if isinstance(v, zipimport.zipimporter)
            ],
            "under_home": [
                p for p in sys.path
                if os.path.commonpath([home, os.path.realpath(p or ".")]) == home
            ],
            "pyspark_file": pyspark.__file__,
            "version": pyspark.__version__,
        }

    (facts,) = spark.sparkContext.parallelize([0], 1).mapPartitions(report).collect()
    assert facts["zipimporters"] == []
    assert facts["under_home"] == []
    assert os.path.isfile(facts["pyspark_file"])  # not a member of an archive
    assert facts["version"] == pyspark.__version__


def test_worker_talks_over_unix_socket(spark):
    def transport(_):
        import os

        yield os.environ.get("PYTHON_UNIX_DOMAIN_ENABLED", "")

    # Spark sets "True"; pyspark.daemon compares the value lowercased.
    (flag,) = spark.sparkContext.parallelize([0], 1).mapPartitions(transport).collect()
    assert flag.lower() == "true"


def _zip(path, files: dict[str, str]) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w") as z:
        for name, text in files.items():
            z.writestr(name, text)
    return str(path)


def _site(path, versions: dict[str, str]) -> str:
    for pkg, v in versions.items():
        (path / pkg).mkdir(parents=True)
        (path / pkg / "version.py").write_text(f'__version__ = "{v}"\n')
    return str(path)


@pytest.fixture
def spark_home(tmp_path):
    """A made-up $SPARK_HOME with PySpark 4.1.2 and py4j 0.10.9.9 archives,
    and the path Spark gives its workers: the archives, then the rest."""
    home = tmp_path / "spark"
    archives = [
        _zip(home / "python/lib/pyspark.zip",
             {"pyspark/__init__.py": "", "pyspark/version.py": "__version__: str = '4.1.2'\n"}),
        _zip(home / "python/lib/py4j-0.10.9.9-src.zip",
             {"py4j/__init__.py": "", "py4j/version.py": "__version__ = '0.10.9.9'\n"}),
        _zip(home / "jars/spark-core_2.13-4.1.2.jar", {"META-INF/MANIFEST.MF": ""}),
    ]
    return str(home), archives


def test_archives_dropped_when_versions_match(tmp_path, spark_home):
    home, archives = spark_home
    site = _site(tmp_path / "site", {"pyspark": "4.1.2", "py4j": "0.10.9.9"})
    stdlib_zip = _zip(tmp_path / "lib/python311.zip", {"os.py": ""})
    path = [str(tmp_path / "cwd"), *archives, str(tmp_path / "src"), stdlib_zip, site]
    assert spark_free_path(path, home) == [str(tmp_path / "cwd"), str(tmp_path / "src"),
                                          stdlib_zip, site]


def test_path_kept_when_installed_version_differs(tmp_path, spark_home):
    home, archives = spark_home
    for versions in ({"pyspark": "4.0.0", "py4j": "0.10.9.9"},
                     {"pyspark": "4.1.2", "py4j": "0.10.9.7"}):
        site = _site(tmp_path / versions["pyspark"] / versions["py4j"], versions)
        path = [*archives, site]
        assert spark_free_path(path, home) == path


def test_path_kept_without_installed_pyspark(tmp_path, spark_home):
    home, archives = spark_home
    site = _site(tmp_path / "site", {"py4j": "0.10.9.9"})
    path = [*archives, site, str(tmp_path / "missing")]
    assert spark_free_path(path, home) == path


def test_path_kept_without_spark_home(tmp_path, spark_home):
    _, archives = spark_home
    path = [*archives, _site(tmp_path / "site", {"pyspark": "4.1.2", "py4j": "0.10.9.9"})]
    assert spark_free_path(path, None) == path
