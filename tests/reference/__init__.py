"""Reference implementations the test suite compares shipped code against.

Nothing here is imported by ``src/repro``; each module is the simplest
statement of a behaviour the package implements a faster way.
"""
