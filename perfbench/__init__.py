"""Benchmark of the assortbench simulator; see run.py."""
