"""The repository's benchmark: three workloads timed end to end and per
layer from outside the program.  Run ``perfbench/run.py``; see README.md."""
