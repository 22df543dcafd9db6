"""Entropy codecs used only by the back-end ablation.

Rice/Golomb coding, frame-of-reference bit packing, Sprintz-style
prediction and the vectorized rANS coder are compared against DBGC's own
coders in ``benchmarks/bench_entropy_backends.py``; no DBGC stream uses
them.
"""
