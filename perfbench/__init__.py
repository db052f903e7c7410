"""End-to-end job benchmark (see run.py)."""
