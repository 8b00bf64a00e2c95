"""The repository benchmark: workloads, tracing and the run entry point (see README.md)."""
