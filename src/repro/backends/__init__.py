"""Trace materialization and its per-invocation store (see :mod:`.base`)."""
