"""homsim: two-mode atomic Hong-Ou-Mandel interference, from source to entanglement depth.

The package is organised around probability distributions rather than state
vectors: every simulated or measured dataset is either a joint occupation
grid over the two output modes or a fixed-total-number distribution over the
occupation half-difference Jz.  Modules:

- fock: ideal sources, beam-splitter rotation kernels, collective moments
- channel: the six-stage measurement-noise model and its fit to data
- detector: camera-count synthesis, calibration, and atom-number quantization
- metrology: fidelity, parity, squeezing, and Hellinger Fisher information
- entanglement: witnesses, depth criteria, and the spin variance boundary
- stats: resampling, asymmetric errors, and shared fit/optimizer wrappers
- cli: the batch pipeline (simulate | calibrate | analyze | fisher | depth | witness)

Importing the package loads none of them, so the CLI starts without numpy;
``from homsim import fock`` or ``import homsim.fock`` loads one.
"""

__version__ = "0.1.0"
