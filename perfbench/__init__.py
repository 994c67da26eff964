"""Benchmark harness for the qinvert CLI; see perfbench/README.md."""
