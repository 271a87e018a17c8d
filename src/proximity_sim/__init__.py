"""Contact-tracing protocol and outbreak co-simulator.

Library layout:

* ``epidemic``  - branching-process Monte Carlo of the outbreak with and
  without tracing alerts, plus its exact expected curve and the
  renewal-equation growth oracle.
* ``crypto``    - textbook RSA envelopes, contact packing, keyed digest.
* ``device``    - per-handset tracking/alert state machine.
* ``authority`` - one-time key issuance and decrypt-and-dispatch servers.
* ``world``     - agent micro-world: motion, RSSI sensing, infection,
  end-to-end protocol runs with ground-truth logging.
* ``config`` / ``report`` / ``cli`` - run configuration, deterministic
  CSV/SVG output, command-line entry point.
"""

from .epidemic import (
    AlertPolicy,
    SimulationParams,
    EnsembleSeries,
    activation_level,
    expected_daily_incidence,
    renewal_growth_factor,
    run_ensemble,
    run_ensembles,
    run_replicate,
)
from .crypto import KeyPair, Envelope, encrypt, decrypt, generate_keypair
from .world import RadioModel, World, WorldConfig

__version__ = "0.1.0"

__all__ = [
    "AlertPolicy",
    "SimulationParams",
    "EnsembleSeries",
    "activation_level",
    "expected_daily_incidence",
    "renewal_growth_factor",
    "run_ensemble",
    "run_ensembles",
    "run_replicate",
    "KeyPair",
    "Envelope",
    "encrypt",
    "decrypt",
    "generate_keypair",
    "RadioModel",
    "World",
    "WorldConfig",
    "__version__",
]
