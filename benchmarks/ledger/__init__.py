"""The performance ledger: one benchmark for the whole stack.

Six workloads, from the bare op loop to a paper-grade conclusion
(20-ish perturbed runs, confidence intervals, wrong-conclusion ratio),
measured end to end and layer by layer from *outside* ``src/``: every
layer is timed through its public entry points and by differential
ablation, never by editing it.  See ``README.md`` in this directory for
the workload rationale, every metric's definition and bound, and how to
read a trace file.

Run the whole ledger::

    PYTHONPATH=src python -m benchmarks.ledger              # full: reps + traced runs
    PYTHONPATH=src python -m benchmarks.ledger --quick      # 1 rep at 1/10 size (CI)
    PYTHONPATH=src python -m benchmarks.ledger --self-check # two sets, compared
    PYTHONPATH=src python -m benchmarks.ledger --compare A.json B.json

One repetition (the ``BENCHMARK.json`` protocol; one JSON object on the
last line of stdout)::

    python3 benchmarks/ledger/__main__.py --workload sim_missy --seed 3 --seconds 10 --trace 0
"""
