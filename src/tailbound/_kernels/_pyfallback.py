# perfbench/tracing.py counts the solver's residual evaluations by wrapping
# poly_exp_residual at this module path; the alias goes with the next
# change to the benchmark
from ..special import poly_exp_residual
