"""Backend flag read by the benchmark harness; no package code imports it.

The Euler and Runge-Kutta loops have a single implementation, the numpy
route in ``solvers``.  ``perfbench/child.py`` stamps this value as the
``backend`` of every run (``numpy`` when it is False).
"""

NUMBA_ENABLED = False
