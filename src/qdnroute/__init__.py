"""Budget-aware entanglement routing for quantum data networks.

A discrete-time simulator and optimization library: probabilistic link
model, Waxman topologies, candidate route precomputation, relax-and-round
channel allocation, exhaustive and Gibbs route selection, an online
queue-driven controller with myopic baselines, and an experiment harness.

Callers import each name from the module that defines it:
``qdnroute.model``, ``qdnroute.topology``, ``qdnroute.routes``,
``qdnroute.allocation``, ``qdnroute.selection``, ``qdnroute.controller``,
``qdnroute.harness`` and ``qdnroute.cli``.  The package root exports only
``__version__``.
"""

__version__ = "0.1.0"
