"""Setuptools shim for environments without the `wheel` package.

`pip install -e .` needs `bdist_wheel` (the wheel package) with the
setuptools shipped here; this shim keeps `python setup.py develop`
working fully offline.
"""
from setuptools import setup

setup()
