"""STKDE repository benchmark (see run.py)."""
