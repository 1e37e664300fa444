"""Benchmark for modalkit: workloads, oracle, tracing and harness."""
