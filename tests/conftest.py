"""Hypothesis profiles of the test suite.

``pytest --hypothesis-profile=ci`` runs every property test on a fixed
sequence of examples and prints the reproduction blob of a failure, so a
property that fails in CI fails the same way on a developer's machine.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
