"""Setuptools shim.

The ``wheel`` package is not available in the offline environment, so PEP-517
editable installs (which build a wheel) fail.  Keeping a ``setup.py`` lets
``pip install -e . --no-use-pep517 --no-build-isolation`` fall back to the
legacy develop-mode install, which needs only setuptools.
"""

from setuptools import setup

setup()
