"""Repository benchmark: pinned workloads, end-to-end and per-layer metrics."""
