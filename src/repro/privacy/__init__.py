"""Differential privacy substrate: RDP accounting, DP-SGD, and the
paper's §5 post-hoc privacy extensions."""

from .accountant import (
    RdpAccountant,
    compute_epsilon,
    noise_multiplier_for_epsilon,
)
from .dpsgd import (
    DpGradientComputer,
    DpSgdConfig,
    privatize_gradients,
    stack_examples,
)
from .extensions import retrain_attribute, transform_ips
from .membership import MembershipAttackResult, membership_inference_attack

__all__ = [
    "RdpAccountant", "compute_epsilon", "noise_multiplier_for_epsilon",
    "DpSgdConfig", "DpGradientComputer", "privatize_gradients",
    "stack_examples",
    "transform_ips", "retrain_attribute",
    "MembershipAttackResult", "membership_inference_attack",
]
