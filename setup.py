"""Setuptools metadata for the ``repro`` package (sources under ``src/``).

There is no ``pyproject.toml``; this file is the project's only packaging
metadata.  Nothing in the repository needs an install: tests, benchmarks
and the CLI run with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
