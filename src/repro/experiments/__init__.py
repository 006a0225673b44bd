"""Experiment drivers: one module per table/figure of the paper.

Each driver exposes a ``run(...)`` function returning a result object with
a ``format_table()`` method; ``python -m repro <verb> --out
results/<stem>.txt`` runs it at its defaults and archives the table
(see EXPERIMENTS.md for the paper-vs-measured record)."""
