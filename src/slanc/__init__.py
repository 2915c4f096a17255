"""Static scaling of normalization-layer inputs for overflow-free FP16
inference, plus the bit-exact binary16 emulator used to prove it works.

Submodules:
    fp16            batched binary16 kernels and the audited accumulator
    linalg          spectral norms and tiled products, in float64
    scales          the closed-form scale factors, the scale table
                    document and its strict reader
    model           configs, synthetic weights, safetensors ingestion
    safetensors_io  the safetensors layout: header checks, offset reads,
                    streamed writes
    serialization   canonical JSON text and atomic file writes
    engine          instrumented forward pass in both precision modes
    report          audit/compare reports: histograms and summaries
    cli             the `slanc` command-line tool

Import names from the submodules: the package itself defines only
__version__.
"""

__version__ = "0.1.0"
