"""Group-involution network, trainer, PAD metrics and kernel audit.

Submodules:
  config   model, trainer and synthetic-data settings; `key = value` text
  tensor   rank-4 array primitives and the binary tensor container
  ops      spatial operators with analytic backward passes
  net      backbone, parameter/FLOP accounting, Grad-CAM, checkpoints
  data     preprocessing, manifests, synthetic benchmark, PGM/PPM I/O
  train    loss, Adam, early stopping, the training loop
  metrics  threshold rates, ROC statistics, ISO PAD metrics
  audit    spectral/spatial kernel indicators and effect sizes
  cli      the `gipad` command-line entry point
"""

__version__ = "0.1.0"
