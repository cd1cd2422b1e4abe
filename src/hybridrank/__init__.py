"""Desk-scale hybrid sparse+dense retrieval with a trained reranker.

BM25 and a small dual encoder are fused by a tuned interpolation weight; the
fused retriever's candidates become training lists for a cross-attention
reranker.  Everything is seeded, exhaustive and numpy-only, so experiments
reproduce bit for bit.
"""

__version__ = "0.1.0"
