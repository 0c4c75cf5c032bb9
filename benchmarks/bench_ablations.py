"""Ablation benches for the design choices DESIGN.md calls out.

These go beyond the paper's own figures to quantify each mechanism:

* allocator policy: CNTK's greedy-by-size vs first-fit vs no sharing;
* CSR narrow-value optimisation on/off (paper claims breakeven sparsity
  falls from 50% to 20%);
* Binarize without the pool argmax-map rewrite (pool must stash X and Y);
* SSDC sparse format choice: narrow CSR vs bitmap;
* DPR rounding mode: round-to-nearest vs truncation (accuracy effect).
"""

import numpy as np

from repro.analysis import format_table
from repro.core import GistConfig, build_gist_plan
from repro.encodings import bitmap_bytes, csr_bytes
from repro.experiments import scaled_study
from repro.memory import (
    POLICY_FIRST_FIT,
    POLICY_GREEDY_SIZE,
    POLICY_NO_SHARING,
    StaticAllocator,
    build_memory_plan,
)
from repro.train import GistPolicy

from conftest import print_header


def test_ablation_allocator_policy(benchmark, suite):
    def run():
        rows = []
        for name, graph in suite.items():
            plan = build_memory_plan(graph)
            sizes = {
                policy: StaticAllocator(policy).allocate(plan.tensors).total_bytes
                for policy in (POLICY_GREEDY_SIZE, POLICY_FIRST_FIT,
                               POLICY_NO_SHARING)
            }
            rows.append(
                [
                    name,
                    sizes[POLICY_GREEDY_SIZE] / 1024**3,
                    sizes[POLICY_FIRST_FIT] / sizes[POLICY_GREEDY_SIZE],
                    sizes[POLICY_NO_SHARING] / sizes[POLICY_GREEDY_SIZE],
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — allocator policy (relative to greedy-by-size)")
    print(format_table(
        ["network", "greedy GiB", "first-fit x", "no-sharing x"], rows
    ))
    for name, _, first_fit, none in rows:
        assert first_fit >= 0.999, name   # greedy never loses to first-fit
        assert none > 1.5, name           # sharing is the whole ballgame


def test_ablation_narrow_csr(benchmark):
    def run():
        n = 1 << 22
        rows = []
        for sparsity in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
            narrow = csr_bytes(n, sparsity, cols=256)
            wide = csr_bytes(n, sparsity, cols=1 << 20)
            bitmap = bitmap_bytes(n, sparsity)
            rows.append(
                [sparsity, 4 * n / narrow, 4 * n / wide, 4 * n / bitmap]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — sparse format compression vs sparsity "
                 "(ratio over dense FP32)")
    print(format_table(
        ["sparsity", "narrow CSR x", "wide CSR x", "bitmap x"], rows
    ))
    by_s = {r[0]: r for r in rows}
    # Paper claim: narrow indices move breakeven from ~50% to ~20%.
    assert by_s[0.3][1] > 1.0 > by_s[0.3][2]
    assert by_s[0.1][1] < 1.0  # below 20% not even narrow CSR wins
    assert by_s[0.7][1] > 2.0


def test_ablation_pool_argmax_rewrite(benchmark, suite):
    def run():
        graph = suite["vgg16"]
        alloc = StaticAllocator()
        with_rewrite = alloc.allocate(
            build_gist_plan(graph, GistConfig.lossless()).plan.tensors
        ).total_bytes
        # Disabling binarize also disables the pool rewrite: the pool
        # stashes X and Y and ReLU-Pool maps stay FP32.
        without = alloc.allocate(
            build_gist_plan(graph, GistConfig.lossless(binarize=False)).plan.tensors
        ).total_bytes
        return with_rewrite, without

    with_rewrite, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — Binarize + pool argmax rewrite (VGG16)")
    print(f"lossless with rewrite:    {with_rewrite / 1024**3:.2f} GiB")
    print(f"lossless without rewrite: {without / 1024**3:.2f} GiB "
          f"({without / with_rewrite:.2f}x larger)")
    assert without > with_rewrite * 1.1


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
