"""A frozen copy of the list-based pipeline, the differential oracle of the
structure-of-arrays cache.

Each module is the ``src/cask`` module of the same name as it stood while
the cache held a list of ``KVEntry`` objects and ``forward_step`` re-stacked
every live entry on each call.  Relative imports keep the copy
self-contained, so ``reference.report.run_sweep`` runs a whole sweep without
touching ``cask``.  The copy is moved code, not new logic: leave it as it
is, and change it only together with a stated reason.
"""
