"""KAMEL benchmark: workloads, per-layer tracing and checks (see README.md)."""
