"""The uns benchmark: seeded closed-loop workloads, independent oracles,
and per-layer tracing from outside the library.  Entry point: run.py."""
