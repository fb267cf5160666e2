"""The six baseline synthesizers from §6.1, plus a NetShare adapter so
every model exposes the same fit/generate interface.

NetFlow baselines: CTGAN, E-WGAN-GP, STAN.
PCAP baselines: CTGAN, PAC-GAN, PacketCGAN, Flow-WGAN.
"""

from typing import Callable, Dict, Optional

from ..core.netshare import NetShare, NetShareConfig
from .base import Synthesizer
from .ctgan import CTGAN
from .ewgangp import EWganGp
from .flowwgan import FlowWgan
from .harpoon import Harpoon
from .pacgan import PacGan
from .packetcgan import PacketCGan
from .rowgan import ColumnSpec, RowGan, RowGanConfig
from .stan import Stan
from .swing import Swing

__all__ = [
    "Synthesizer", "CTGAN", "EWganGp", "Stan", "PacGan", "PacketCGan",
    "FlowWgan", "Harpoon", "Swing", "NetShareSynthesizer",
    "ColumnSpec", "RowGan", "RowGanConfig",
    "NetShare", "NetShareConfig",
    "NETFLOW_BASELINES", "PCAP_BASELINES", "make_baseline",
]


class NetShareSynthesizer(Synthesizer):
    """Adapter giving NetShare the common Synthesizer interface."""

    name = "NetShare"
    supports = ("netflow", "pcap")

    def __init__(self, config: Optional[NetShareConfig] = None):
        self.model = NetShare(config)

    def fit(self, trace) -> "NetShareSynthesizer":
        self._check_support(trace)
        self.model.fit(trace)
        return self

    def generate(self, n_records: int, seed: Optional[int] = None):
        return self.model.generate(n_records, seed=seed)


#: Baseline factories per trace kind, as evaluated in Figs 10/16/17.
NETFLOW_BASELINES = ("CTGAN", "STAN", "E-WGAN-GP")
PCAP_BASELINES = ("CTGAN", "PAC-GAN", "PacketCGAN", "Flow-WGAN")

_FACTORIES: Dict[str, Callable[..., Synthesizer]] = {
    "CTGAN": CTGAN,
    "Harpoon": lambda epochs=0, seed=0: Harpoon(seed=seed),
    "Swing": lambda epochs=0, seed=0: Swing(seed=seed),
    "E-WGAN-GP": EWganGp,
    "STAN": Stan,
    "PAC-GAN": PacGan,
    "PacketCGAN": PacketCGan,
    "Flow-WGAN": FlowWgan,
}


def make_baseline(name: str, epochs: int = 30, seed: int = 0,
                  jobs: Optional[int] = None) -> Synthesizer:
    """Build a baseline by its paper name.

    ``jobs`` selects the repro.runtime executor for baselines with
    parallelisable training (ignored by the rest); the
    ``multiprocessing`` pool routes task payloads through the
    zero-copy shared-memory data plane.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown baseline {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
    model = factory(epochs=epochs, seed=seed)
    if jobs is not None:
        model.jobs = jobs
    return model
