"""Hypothesis profiles for the test suite.

``pytest --hypothesis-profile=ci`` prints, with a failing example, the blob
that replays it (``@reproduce_failure``); it changes no example count or
deadline.
"""
from hypothesis import settings

settings.register_profile("ci", print_blob=True)
