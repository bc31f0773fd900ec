from setuptools import Extension, setup

# optional: without a C compiler or Python.h the build skips the extension
# and qtcat.kernels falls back to the pure-Python kernels at import time.
setup(ext_modules=[Extension("qtcat._speedups", ["src/qtcat/_speedups.c"], optional=True)])
