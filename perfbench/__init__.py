"""Calibrated benchmark of the entroconj toolkit; the entry point is ``perfbench/run.py``."""
