"""Suite-wide setup, loaded before any test module imports numpy.

The model's matmuls are small, and with more than one BLAS thread per
process the worker processes of the c6/c7 fixture contend for the cores:
the suite pins OpenBLAS to one thread unless the caller chose otherwise.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
