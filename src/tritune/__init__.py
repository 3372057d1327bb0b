"""Exact-arithmetic construction and comparison of three historical scales:
equal division, Pythagorean (3-limit) and natural/just (5-limit)."""
