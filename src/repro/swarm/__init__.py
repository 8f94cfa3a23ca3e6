"""Robot-swarm density estimation (Section 5.2) and model ablations (Section 6.1).

* :mod:`repro.swarm.swarm` — a :class:`RobotSwarm` facade over the core
  estimators: overall density, per-task-group densities, relative task
  frequencies, and quorum detection for a swarm on a torus workspace.
* :mod:`repro.swarm.noise` — noisy collision detection models (missed and
  spurious detections) plus the bias correction for them.
* :mod:`repro.swarm.placement` — initial placement distributions, including
  the clustered placements that break the uniform-placement assumption.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "CollectiveDecision": ".collective", "MajorityQuorumVote": ".collective",
    "RobotSwarm": ".swarm", "SwarmDensityReport": ".swarm",
    "NoisyCollisionModel": ".noise", "correct_noisy_estimate": ".noise",
    "uniform_placement": "repro.core.simulation",
    "clustered_placement": ".placement", "gaussian_blob_placement": ".placement",
})

__all__ = [
    "CollectiveDecision",
    "MajorityQuorumVote",
    "RobotSwarm",
    "SwarmDensityReport",
    "NoisyCollisionModel",
    "correct_noisy_estimate",
    "uniform_placement",
    "clustered_placement",
    "gaussian_blob_placement",
]
