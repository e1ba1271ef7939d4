"""Workload generation: the WebBench-style client side of the evaluation."""
