"""Closed-loop benchmark of the GDR engine; ``run.py`` is the entry point."""
