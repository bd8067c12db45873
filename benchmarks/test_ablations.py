"""Ablation benchmarks for design choices called out in DESIGN.md.

1. Majority-voting window length sweep (the paper selected 5).
2. INT4 quantization of the *first* layer / sensor input (the paper excludes
   it because it degrades accuracy severely).
3. RV32C compressed-ISA code-size accounting (the toolchain targets
   riscv32-imc).
"""

import numpy as np
import pytest

from conftest import save_result

from repro.deploy import compile_network
from repro.nn import predict
from repro.nn.metrics import balanced_accuracy
from repro.postproc import sweep_window_lengths
from repro.quant import (
    PrecisionScheme,
    QATConfig,
    convert_to_integer,
    explore_mixed_precision,
)


@pytest.mark.benchmark(group="ablation")
def test_majority_window_sweep(benchmark, flow_result, bench_test_frames):
    """Window-length ablation on the most accurate quantized model."""
    frames, labels = bench_test_frames
    top = flow_result.select_top()

    def run():
        predictions = predict(top.quantized.model, frames)
        return sweep_window_lengths(predictions, labels, windows=(1, 3, 5, 7, 9, 11))

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["# Ablation — majority-voting window length", ""]
    for r in results:
        lines.append(
            f"window={r.window:<3} bas={r.bas_filtered:.3f} "
            f"(delay ~{r.detection_delay_frames:.1f} frames)"
        )
    best = max(results, key=lambda r: r.bas_filtered)
    lines.append("")
    lines.append(f"best window: {best.window} (paper found 5 most effective)")
    save_result("ablation_majority_window", lines)

    raw = results[0].bas_filtered  # window=1 is the unfiltered accuracy
    assert best.bas_filtered >= raw - 1e-9


@pytest.mark.benchmark(group="ablation")
def test_int4_input_degradation(benchmark, flow_result, bench_dataset):
    """Quantizing the first layer (sensor input) at 4 bits should cost
    noticeably more accuracy than keeping it at 8 bits — the reason the paper
    pins the first layer to INT8."""
    arch = max(flow_result.float_points, key=lambda p: p.bas)
    pre = flow_result.preprocessor
    from repro.nn import ArrayDataset

    test_session = bench_dataset.session(2)
    train_frames = np.concatenate(
        [s.frames for s in bench_dataset.sessions if s.session_id != 2]
    )
    train_labels = np.concatenate(
        [s.labels for s in bench_dataset.sessions if s.session_id != 2]
    )
    train_set = ArrayDataset(pre(train_frames), train_labels)
    test_set = ArrayDataset(pre(test_session.frames), test_session.labels)

    def run():
        points = explore_mixed_precision(
            arch.model,
            train_set,
            test_set,
            schemes=[PrecisionScheme((8, 4, 4, 4)), PrecisionScheme((4, 4, 4, 4))],
            config=QATConfig(epochs=2, batch_size=128, input_bits=8),
            seed=3,
        )
        by_label = {p.scheme.label: p for p in points}
        # For the 4-4-4-4 scheme also quantize the input itself at 4 bits.
        q4 = explore_mixed_precision(
            arch.model,
            train_set,
            test_set,
            schemes=[PrecisionScheme((4, 4, 4, 4))],
            config=QATConfig(epochs=2, batch_size=128, input_bits=4),
            seed=3,
        )[0]
        return by_label["INT 8-4-4-4"], q4

    first8, first4 = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "# Ablation — INT4 quantization of the first layer / sensor input",
        "",
        f"first layer INT8 (paper's choice): bas={first8.bas:.3f} memory={first8.memory_kb:.2f} kB",
        f"first layer INT4 (excluded):       bas={first4.bas:.3f} memory={first4.memory_kb:.2f} kB",
        f"BAS of INT4 minus INT8 first layer: {(first4.bas - first8.bas) * 100:+.2f} points"
        " (negative: the INT4 input loses accuracy)",
    ]
    save_result("ablation_int4_input", lines)
    # The 4-bit-input variant must not be better than the 8-bit-input one by a
    # noticeable margin (the paper observed severe degradation).
    assert first4.bas <= first8.bas + 0.03


@pytest.mark.benchmark(group="ablation")
def test_compressed_isa_code_size(benchmark, flow_result):
    """Effect of the RV32C compressed-ISA heuristic on code size."""
    top = flow_result.select_top()
    inet = convert_to_integer(top.quantized.model)

    def run():
        rows = []
        for use_sdotp in (False, True):
            compressed = compile_network(inet, use_sdotp=use_sdotp, compressed_isa=True)
            uncompressed = compile_network(inet, use_sdotp=use_sdotp, compressed_isa=False)
            rows.append((use_sdotp, compressed.code_size_bytes, uncompressed.code_size_bytes))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["# Ablation — RV32C compressed-ISA code size", ""]
    for use_sdotp, comp, uncomp in rows:
        flavour = "MAUPITI (sdotp)" if use_sdotp else "IBEX (scalar)"
        lines.append(
            f"{flavour:<16} compressed={comp:>6} B  uncompressed={uncomp:>6} B "
            f"({100 * (1 - comp / uncomp):.1f}% smaller)"
        )
    save_result("ablation_compressed_isa", lines)
    for _use_sdotp, comp, uncomp in rows:
        assert comp < uncomp
