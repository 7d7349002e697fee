"""Package metadata for the NeuPIMs reproduction (import name ``repro``).

All metadata lives here; there is no ``pyproject.toml``.  Install with
``pip install -e .``, or with ``python setup.py develop`` where the
``wheel`` package is missing.  Tests and examples also run without an
install from a checkout with ``PYTHONPATH=src``.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
