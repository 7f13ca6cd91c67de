"""Test-suite configuration shared by every test module.

Hypothesis runs under one loaded profile: examples are derived from each
test's own source (``derandomize=True``) and no example database is read
or written (``database=None``), so every run checks the same examples
and a failure found once fails again on the next run, on any machine.
Each test's own ``@settings`` (``max_examples``, ``deadline``) still
applies on top of the profile.
"""

from hypothesis import settings

settings.register_profile("repro-deterministic", derandomize=True, database=None)
settings.load_profile("repro-deterministic")
