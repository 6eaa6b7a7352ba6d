"""The repo benchmark: four pinned workloads, best-of-rounds host timing,
exact modelled-time and call-count layer metrics.  See README.md."""
