"""The simulator's throughput measurement (``make bench-full``, ``make bench-smoke``)."""
