"""Run the property tests on the same examples every time.

With derandomize on, each test's examples derive from the test itself, and
with no example database nothing from an earlier run is replayed, so two
runs of one tree do the same work and Tier-1 wall time compares across
runs.  Tests keep their own max_examples and deadline.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
