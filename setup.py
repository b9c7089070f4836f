"""Setuptools entry point: ``pip install -e .`` installs the ``repro``
package from ``src/`` and the ``repro-sim`` console script.

The version has one home, ``src/repro/__init__.py``; it is read from
there as text so that running this file imports nothing from the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro-sim",
    version=VERSION,
    description=(
        "Network-aware partial caching of streaming media: a trace-driven "
        "proxy cache simulator"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-sim = repro.cli:main"]},
)
