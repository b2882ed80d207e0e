"""Test-side reference implementations of the engine's fast paths.

The engine runs one path per stage; each module here holds the plain
reference that path must reproduce, plus a ``use_*`` helper that
monkeypatches the reference into a live engine, so a test can run a
session once as-is and once on the reference and compare the two.
"""
