"""Reference implementations kept only for tests and benchmarks.

Each oracle is a straightforward (slow) version of a hot loop in
``src/``; the shipped code must match it exactly.
"""
