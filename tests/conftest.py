"""Hypothesis profiles.

``tier1``, loaded by default, derandomizes every property and keeps no
example database, so every checkout runs the same examples and reaches
the same verdict. ``explore`` draws fresh random examples on each run and
keeps the local database; select it with
``pytest --hypothesis-profile=explore``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
