"""The scalar kernels, in the single pure-Python module _pyfallback."""
