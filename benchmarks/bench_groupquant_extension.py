"""Extension bench: how far can the stash width drop? (follow-on work)

Gist's smallest format is FP8; follow-on research (ActNN) reached 2 bits
with per-group affine quantisation.  This bench trains the scaled VGG
under group-quantised stashes at 8/4/2/1 bits — forward pass exact, error
confined to the backward copies, exactly Gist's delayed-reduction recipe —
and reports accuracy against the stash compression achieved.

Expected shape: INT8/INT4 match the baseline (beating DPR-FP8's 4x
compression), INT2 still trains with some loss, INT1 degrades — the
delayed-error budget is generous but not unlimited.
"""

from repro.analysis import format_table
from repro.encodings import GroupQuantEncoding
from repro.experiments import scaled_study

from conftest import print_header

EPOCHS = 5
BITS = [8, 4, 2, 1]


def run_sweep():
    results = {"baseline": scaled_study("baseline", EPOCHS)[1]}
    for bits in BITS:
        results[f"int{bits}"] = scaled_study(f"groupquant-int{bits}",
                                             EPOCHS)[1]
    return results


def test_groupquant_width_sweep(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_header("Extension — group-quantised stashes: accuracy vs width")
    rows = []
    n = 1 << 20
    for label, result in results.items():
        if label == "baseline":
            compression = 1.0
        else:
            bits = int(label[3:])
            enc = GroupQuantEncoding(bits, group_size=256)
            compression = 4 * n / enc.encoded_bytes(n)
        rows.append([label, f"{compression:.1f}x", result.final_accuracy])
    print(format_table(["stash format", "compression", "final accuracy"],
                       rows))
    base = results["baseline"].final_accuracy
    assert base > 0.8
    # INT8 and INT4 track the baseline; INT4 compresses ~8x (2x DPR-FP8).
    assert results["int8"].final_accuracy > base - 0.1
    assert results["int4"].final_accuracy > base - 0.1
    # INT1 must do visibly worse than INT4 — the budget runs out.
    assert results["int1"].final_accuracy < results["int4"].final_accuracy
