"""Ablation bench: DPR rounding mode, round-to-nearest vs truncation.

The static ablations (allocator policy, narrow CSR, the pool argmax
rewrite) are rows of ``BENCH_figures.json`` with their claims in
``tests/test_paper_claims.py``; this one trains the executor, so it
stays a bench.
"""

from repro.analysis import format_table
from repro.core import GistConfig
from repro.experiments import scaled_study
from repro.train import GistPolicy

from conftest import print_header


def test_ablation_dpr_rounding(benchmark):
    def run():
        accs = {}
        for rounding in ("nearest", "truncate"):
            # ``rounding`` is a config switch no vocabulary name carries.
            _, result = scaled_study(
                lambda g: GistPolicy(
                    g, GistConfig(dpr_format="fp8", rounding=rounding)),
                5, num_samples=512,
            )
            accs[rounding] = result.final_accuracy
        return accs

    accs = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — DPR FP8 rounding mode (final accuracy)")
    print(format_table(
        ["rounding", "accuracy"],
        [[k, v] for k, v in accs.items()],
    ))
    # Round-to-nearest (the paper's choice) must not lose to truncation.
    assert accs["nearest"] >= accs["truncate"] - 0.05
    assert accs["nearest"] > 0.7
