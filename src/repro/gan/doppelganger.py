"""DoppelGANger-style time-series GAN (Lin et al., IMC 2020) — the
generative core NetShare builds on (§4.1 Insight 1, Appendix C).

Architecture, following the paper's configuration notes:

* a *metadata generator* (MLP) maps noise to the flow's metadata
  (encoded five-tuple + flow tags),
* a *measurement generator* (GRU) conditioned on the metadata emits
  per-timestep measurements plus a generation flag (DoppelGANger's
  variable-length mechanism),
* a *joint discriminator* scores (metadata, masked measurements,
  flags); an *auxiliary discriminator* on metadata alone is enabled
  (Appendix C: "auxiliary discriminator is enabled"),
* Wasserstein loss with gradient penalty (WGAN-GP), Adam(beta1=0.5),
* continuous features live in [0, 1] ("[0,1] normalization for the
  continuous fields"); auto-normalisation and packing are not used,
  matching Appendix C.

DP training privatises the discriminators with DP-SGD (clip + noise)
— the generator never touches real data, so its updates are
post-processing.  In DP mode the gradient penalty is replaced by
weight clipping (original WGAN) to keep per-example gradients cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.flow_encoder import EncodedFlows
from ..telemetry import emit_event
from ..telemetry.spans import span
from ..telemetry.state import STATE as _TELEMETRY
from ..nn import (
    Adam,
    Dense,
    GRUCell,
    Module,
    Sequential,
    Tensor,
    concatenate,
    grad,
    no_grad,
    stack,
    tensor,
)
from ..nn.tape import (
    LiveRng,
    bucket_size,
    compiled_infer,
    compiled_step,
    k_gather,
    ka as _ka,
    taped_draw,
)
from ..privacy.dpsgd import DpSgdConfig, privatize_gradients, stack_examples

__all__ = ["DgConfig", "DoppelGANger", "TrainingLog"]


@dataclass
class DgConfig:
    """DoppelGANger hyperparameters (defaults sized for numpy training).

    ``metadata_segments`` optionally structures the metadata output:
    a list of ``("sigmoid", width)`` segments (bits, tags) and
    ``("anchor", matrix)`` segments whose output is a Gumbel-softmax
    mixture over the fixed (K, d) anchor matrix — used for IP2Vec-
    embedded fields so the generator selects among real dictionary
    points rather than free-form vectors.  When omitted, the whole
    metadata vector is one sigmoid segment.
    """

    metadata_dim: int = 0
    measurement_dim: int = 0
    max_timesteps: int = 8
    noise_dim: int = 12
    meta_hidden: int = 48
    rnn_hidden: int = 48
    disc_hidden: int = 64
    n_critic: int = 2
    gp_weight: float = 10.0
    aux_weight: float = 1.0
    lr: float = 1e-3
    batch_size: int = 32
    use_aux_discriminator: bool = True
    metadata_segments: Optional[list] = None
    gumbel_temperature: float = 0.5

    def __post_init__(self):
        if self.metadata_dim < 1 or self.measurement_dim < 1:
            raise ValueError("metadata_dim and measurement_dim are required")
        if self.max_timesteps < 1:
            raise ValueError("max_timesteps must be positive")
        if self.n_critic < 1:
            raise ValueError("n_critic must be >= 1")
        if self.metadata_segments is not None:
            total = 0
            for seg in self.metadata_segments:
                tag, payload = seg[0], seg[1]
                if tag == "sigmoid":
                    total += int(payload)
                elif tag == "anchor":
                    total += int(np.asarray(payload).shape[1])
                else:
                    raise ValueError(f"unknown metadata segment {tag!r}")
            if total != self.metadata_dim:
                raise ValueError(
                    f"metadata segments sum to {total} != {self.metadata_dim}"
                )


@dataclass
class TrainingLog:
    """Per-epoch loss curves and timing (used by the scalability bench)."""

    d_loss: List[float] = field(default_factory=list)
    g_loss: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    steps: int = 0


class _MetadataGenerator(Module):
    """MLP trunk with per-segment heads (sigmoid or anchor-mixture)."""

    def __init__(self, config: DgConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.trunk = Sequential(
            Dense(config.noise_dim, config.meta_hidden, "relu", rng=rng),
            Dense(config.meta_hidden, config.meta_hidden, "relu", rng=rng),
        )
        self.segments = config.metadata_segments or [
            ("sigmoid", config.metadata_dim)
        ]
        self._anchors = []
        # Heads see the raw noise alongside the trunk features (a skip
        # connection) — this measurably improves per-sample diversity
        # of the anchor mixtures at small training budgets.
        head_in = config.meta_hidden + config.noise_dim
        for i, seg in enumerate(self.segments):
            tag, payload = seg[0], seg[1]
            if tag == "sigmoid":
                head = Dense(head_in, int(payload), "sigmoid", rng=rng)
                self._anchors.append(None)
            else:
                anchors = np.asarray(payload, dtype=np.float64)
                head = Dense(head_in, len(anchors), "linear", rng=rng)
                if len(seg) > 2 and seg[2] is not None:
                    # Public-frequency prior: start the anchor mixture
                    # at the public token distribution (Insight 4).
                    head.bias.data = np.asarray(seg[2], dtype=np.float64).copy()
                self._anchors.append(Tensor(anchors))  # fixed, not trained
            setattr(self, f"head{i}", head)

    def forward(self, z: Tensor, rng: np.random.Generator,
                hard: bool = False) -> Tensor:
        from ..nn.functional import gumbel_softmax

        h = concatenate([self.trunk(z), z], axis=-1)
        parts = []
        for i, seg in enumerate(self.segments):
            tag = seg[0]
            head = getattr(self, f"head{i}")
            out = head(h)
            if tag == "anchor":
                # Soft samples during training (smooth gradients); hard
                # one-hot at generation so emitted embeddings are exact
                # dictionary points for the nearest-neighbour decode.
                probs = gumbel_softmax(
                    out, temperature=self.config.gumbel_temperature,
                    rng=rng, hard=hard,
                )
                out = probs @ self._anchors[i]
            parts.append(out)
        return concatenate(parts, axis=-1)


class _MeasurementGenerator(Module):
    """GRU emitting (measurement, generation flag) per timestep."""

    def __init__(self, config: DgConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        input_dim = config.noise_dim + config.metadata_dim
        self.cell = GRUCell(input_dim, config.rnn_hidden, rng=rng)
        self.head_meas = Dense(config.rnn_hidden, config.measurement_dim,
                               "sigmoid", rng=rng)
        self.head_flag = Dense(config.rnn_hidden, 1, "sigmoid", rng=rng)

    def forward(self, metadata: Tensor, noise: np.ndarray):
        """noise is (batch, T, noise_dim); returns (meas, flags) tensors."""
        batch, t_max = noise.shape[0], noise.shape[1]
        h = self.cell.initial_state(batch)
        measurements, flags = [], []
        for t in range(t_max):
            step_in = concatenate([tensor(noise[:, t, :]), metadata], axis=-1)
            h = self.cell(step_in, h)
            measurements.append(self.head_meas(h))
            flags.append(self.head_flag(h))
        return stack(measurements, axis=1), concatenate(flags, axis=-1)


class _Discriminator(Module):
    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.net = Sequential(
            Dense(input_dim, hidden, "leaky_relu", rng=rng),
            Dense(hidden, hidden, "leaky_relu", rng=rng),
            Dense(hidden, 1, "linear", rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


def _flatten_sample(metadata: Tensor, measurements: Tensor,
                    flags: Tensor) -> Tensor:
    """Joint discriminator input: [meta, masked measurements, flags]."""
    batch = metadata.shape[0]
    t_max, d = measurements.shape[1], measurements.shape[2]
    masked = measurements * flags.reshape(batch, t_max, 1)
    return concatenate(
        [metadata, masked.reshape(batch, t_max * d), flags], axis=-1
    )


def _with_batch_stats(flat: Tensor, axis: int = 0) -> Tensor:
    """Append the batch mean to every sample (minibatch statistics).

    A per-sample critic can detect *support* mismatch but not
    *histogram imbalance* (e.g. one anchor over-represented); showing
    it the batch mean gives it — and, through it, the generator — a
    gradient signal for marginal mode balance.  The original
    DoppelGANger relies on scale instead ('packing is not used'); at
    numpy scale this is the cheap equivalent.  ``axis`` is the batch
    axis: the DP critic step stacks batches of one as ``(b, 1, F)``
    and averages over ``axis=1``.
    """
    mean = flat.mean(axis=axis, keepdims=True)
    return concatenate([flat, mean.broadcast_to(flat.shape)], axis=-1)


def _per_example_critic(critic: "_Discriminator", x: Tensor,
                        leaves: Sequence[Tensor]) -> Tensor:
    """``critic`` on ``(b, 1, F)`` rows, with parameters per example.

    ``leaves`` are ``(b,) + param.shape`` tensors in
    ``critic.parameters()`` order.  Each example keeps the batch-1 row
    shape of a per-example forward, so every matmul runs as ``b``
    stacked vector-matrix products: the same BLAS calls, and the same
    bits, as ``b`` separate batch-1 passes.
    """
    b = x.shape[0]
    for layer, weight, bias in zip(critic.net.layers, leaves[0::2],
                                   leaves[1::2]):
        x = layer.forward_with(x, weight, bias.reshape(b, 1, -1))
    return x


class DoppelGANger:
    """The time-series GAN with fit / fine-tune / DP-fit / generate."""

    def __init__(self, config: DgConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.gen_meta = _MetadataGenerator(config, rng)
        self.gen_meas = _MeasurementGenerator(config, rng)
        joint_dim = (config.metadata_dim
                     + config.max_timesteps * config.measurement_dim
                     + config.max_timesteps)
        # Critic inputs are doubled by the appended batch-mean features.
        self.disc = _Discriminator(2 * joint_dim, config.disc_hidden, rng)
        self.disc_aux = (
            _Discriminator(2 * config.metadata_dim, config.disc_hidden, rng)
            if config.use_aux_discriminator else None
        )
        self._rng = rng
        self.log = TrainingLog()

        self._g_params = self.gen_meta.parameters() + self.gen_meas.parameters()
        self._d_params = self.disc.parameters() + (
            self.disc_aux.parameters() if self.disc_aux else []
        )
        self._g_opt = Adam(self._g_params, lr=config.lr, beta1=0.5)
        self._d_opt = Adam(self._d_params, lr=config.lr, beta1=0.5)

        # Plan/execute split: each step body records an execution tape
        # on first run per shape signature and replays it afterwards
        # (see repro.nn.tape).  REPRO_NN_TAPE=0 keeps every step on the
        # eager bodies below.
        self._c_disc = compiled_step(self._disc_core, "dg.disc")
        self._c_gen = compiled_step(self._gen_core, "dg.gen")
        # The DP step returns its per-example losses as one array.
        self._c_dp_disc = compiled_step(self._dp_disc_core, "dg.dp_disc",
                                        extract="array")
        # Generation runs as a forward-only tape per bucketed batch
        # size; the LiveRng proxy lets per-call seeds feed replayed
        # draws (the tape captured the proxy, not the generator).
        self._infer_rng = LiveRng(rng)
        self._c_infer = compiled_infer(self._infer_core, "dg.infer")

    # ------------------------------------------------------------------
    def release_tapes(self) -> None:
        """Free the recorded tapes now.  A model is a reference cycle
        (its compiled steps call back into it), so once dropped its
        tape storage would otherwise wait for the cyclic collector."""
        for step in (self._c_disc, self._c_gen, self._c_dp_disc,
                     self._c_infer):
            step.clear()

    def num_parameters(self) -> int:
        return sum(p.size for p in self._g_params + self._d_params)

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {}
        for prefix, module in self._named_modules():
            for name, p in module.named_parameters():
                state[f"{prefix}.{name}"] = p.data.copy()
        return state

    @classmethod
    def from_state(cls, config: DgConfig, state: Dict[str, np.ndarray],
                   seed: int = 0, log: Optional[TrainingLog] = None,
                   ) -> "DoppelGANger":
        """Construct-from-state factory (the runtime's reassembly path).

        Builds a model with the given config/seed and overwrites its
        parameters with ``state`` — e.g. weights trained by a
        :func:`repro.runtime.chunk_tasks.train_chunk` worker, or loaded
        from a ``NetShare.save`` archive.  Passing the same ``seed``
        used at training time keeps any later in-process sampling
        (``generate`` without an explicit seed) reproducible.
        """
        model = cls(config, seed=seed)
        model.load_state_dict(state)
        if log is not None:
            model.log = log
        return model

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for prefix, module in self._named_modules():
            sub = {
                name[len(prefix) + 1:]: value
                for name, value in state.items()
                if name.startswith(prefix + ".")
            }
            module.load_state_dict(sub)

    def _named_modules(self):
        modules = [("gen_meta", self.gen_meta), ("gen_meas", self.gen_meas),
                   ("disc", self.disc)]
        if self.disc_aux is not None:
            modules.append(("disc_aux", self.disc_aux))
        return modules

    # ------------------------------------------------------------------
    def _sample_fake(self, batch: int):
        z_meta = taped_draw(lambda: self._rng.normal(
            size=(batch, self.config.noise_dim)))
        z_meas = taped_draw(lambda: self._rng.normal(
            size=(batch, self.config.max_timesteps, self.config.noise_dim)))
        metadata = self.gen_meta(tensor(z_meta), self._rng)
        measurements, flags = self.gen_meas(metadata, z_meas)
        return metadata, measurements, flags

    def _real_batch(self, data: EncodedFlows, indices: np.ndarray):
        return (
            tensor(k_gather(data.metadata, indices)),
            tensor(k_gather(data.measurements, indices)),
            tensor(k_gather(data.gen_flags, indices)),
        )

    def _gradient_penalty(self, critic: Module, real_flat: Tensor,
                          fake_flat: Tensor) -> Tensor:
        batch = real_flat.shape[0]
        eps = taped_draw(lambda: self._rng.uniform(size=(batch, 1)))
        # eps*real + (1-eps)*fake as explicit kernels (same order the
        # expression evaluates in, so bitwise unchanged).
        x_hat = tensor(
            _ka(np.add, _ka(np.multiply, eps, real_flat.data),
                _ka(np.multiply, _ka(np.subtract, 1.0, eps),
                    fake_flat.data)),
            requires_grad=True,
        )
        d_hat = critic(x_hat)
        (gx,) = grad(d_hat.sum(), [x_hat], create_graph=True)
        norms = (gx.square().sum(axis=1) + 1e-12).sqrt()
        # One-sided penalty: only gradients above norm 1 are punished.
        # The two-sided form pins the critic's slope magnitude at 1,
        # which can trap a wrongly-oriented critic behind an energy
        # barrier at tiny scale; the one-sided variant lets it reorient.
        from ..nn import maximum
        excess = maximum(norms - 1.0, Tensor(np.zeros(norms.shape)))
        return excess.square().mean()

    # ------------------------------------------------------------------
    def _disc_step(self, data: EncodedFlows, batch_size: int) -> float:
        # One compiled step per signature: the wrapper records the
        # eager body once and replays the tape on warm steps.  Nothing
        # tape-owned escapes: the loss leaves as a float.  The key pins
        # the data arrays by identity — chunked fine-tuning swaps them,
        # recording a fresh tape.
        b = min(batch_size, len(data))
        key = (id(data.metadata), id(data.measurements),
               id(data.gen_flags), b)
        return self._c_disc.run(key, data, b)

    def _disc_core(self, data: EncodedFlows, b: int) -> Tensor:
        n = len(data)
        idx = taped_draw(lambda: self._rng.integers(0, n, size=b))
        real = self._real_batch(data, idx)
        with no_grad():
            fake = self._sample_fake(b)
        fake = tuple(t.detach() for t in fake)

        real_flat = _with_batch_stats(_flatten_sample(*real))
        fake_flat = _with_batch_stats(_flatten_sample(*fake))
        loss = (self.disc(fake_flat).mean() - self.disc(real_flat).mean()
                + self.config.gp_weight
                * self._gradient_penalty(self.disc, real_flat, fake_flat))
        if self.disc_aux is not None:
            real_meta = _with_batch_stats(real[0])
            fake_meta = _with_batch_stats(fake[0])
            loss = loss + self.config.aux_weight * (
                self.disc_aux(fake_meta).mean()
                - self.disc_aux(real_meta).mean()
                + self.config.gp_weight
                * self._gradient_penalty(self.disc_aux, real_meta,
                                         fake_meta)
            )
        self._d_opt.step(grad(loss, self._d_params))
        return loss

    def _gen_step(self, batch_size: int) -> float:
        return self._c_gen.run((batch_size,), batch_size)

    def _gen_core(self, batch_size: int) -> Tensor:
        metadata, measurements, flags = self._sample_fake(batch_size)
        fake_flat = _with_batch_stats(
            _flatten_sample(metadata, measurements, flags))
        loss = -self.disc(fake_flat).mean()
        if self.disc_aux is not None:
            loss = loss - self.config.aux_weight * self.disc_aux(
                _with_batch_stats(metadata)).mean()
        self._g_opt.step(grad(loss, self._g_params))
        return loss

    def fit(self, data: EncodedFlows, epochs: int = 20,
            verbose: bool = False) -> TrainingLog:
        """Adversarial training on one chunk's encoded flows."""
        self._validate_data(data)
        if epochs < 1:
            raise ValueError("need at least one epoch")
        start = time.perf_counter()
        n = len(data)
        # Small chunks would otherwise see almost no updates per epoch;
        # floor the step count so training effort scales sensibly.
        steps_per_epoch = max(2, n // self.config.batch_size)
        with span("dg.fit", epochs=epochs, records=n):
            for epoch in range(epochs):
                epoch_start = time.perf_counter()
                d_losses, g_losses = [], []
                with span("dg.epoch", epoch=epoch):
                    for _ in range(steps_per_epoch):
                        for _ in range(self.config.n_critic):
                            d_losses.append(
                                self._disc_step(data, self.config.batch_size))
                        g_losses.append(self._gen_step(self.config.batch_size))
                        self.log.steps += 1
                self.log.d_loss.append(float(np.mean(d_losses)))
                self.log.g_loss.append(float(np.mean(g_losses)))
                if _TELEMETRY.enabled:
                    _TELEMETRY.registry.histogram(
                        "gan.epoch_seconds").observe(
                        time.perf_counter() - epoch_start)
                    emit_event("epoch", model="doppelganger", epoch=epoch,
                               d_loss=self.log.d_loss[-1],
                               g_loss=self.log.g_loss[-1])
                if verbose:
                    print(f"epoch {epoch}: D={self.log.d_loss[-1]:.4f} "
                          f"G={self.log.g_loss[-1]:.4f}")
        self.log.wall_seconds += time.perf_counter() - start
        return self.log

    def fine_tune(self, data: EncodedFlows, epochs: int = 5) -> TrainingLog:
        """Insight 3: continue training from the current (warm) weights.

        Optimizer moments are reset so the fine-tune step behaves like
        the paper's per-chunk fine-tuning from the seed-chunk model.
        """
        self._g_opt.reset_state()
        self._d_opt.reset_state()
        return self.fit(data, epochs=epochs)

    # ------------------------------------------------------------------
    def fit_dp(self, data: EncodedFlows, epochs: int,
               dp_config: DpSgdConfig, clip_weights: float = 0.1,
               seed: int = 0) -> TrainingLog:
        """DP-SGD training: discriminator gradients are per-example
        clipped and noised; the generator update is post-processing.
        Weight clipping replaces the gradient penalty (WGAN style)."""
        self._validate_data(data)
        noise_rng = np.random.default_rng(seed)
        start = time.perf_counter()
        n = len(data)
        steps_per_epoch = max(2, n // self.config.batch_size)
        with span("dg.fit_dp", epochs=epochs, records=n):
            for epoch in range(epochs):
                epoch_start = time.perf_counter()
                d_losses, g_losses = [], []
                with span("dg.epoch", epoch=epoch):
                    for _ in range(steps_per_epoch):
                        for _ in range(self.config.n_critic):
                            d_losses.append(
                                self._dp_disc_step(data, dp_config, noise_rng)
                            )
                        g_losses.append(self._gen_step(self.config.batch_size))
                        for p in self._d_params:
                            np.clip(p.data, -clip_weights, clip_weights,
                                    out=p.data)
                        self.log.steps += 1
                self.log.d_loss.append(float(np.mean(d_losses)))
                self.log.g_loss.append(float(np.mean(g_losses)))
                if _TELEMETRY.enabled:
                    _TELEMETRY.registry.histogram(
                        "gan.epoch_seconds").observe(
                        time.perf_counter() - epoch_start)
                    emit_event("epoch", model="doppelganger", epoch=epoch,
                               mode="dp", d_loss=self.log.d_loss[-1],
                               g_loss=self.log.g_loss[-1])
        self.log.wall_seconds += time.perf_counter() - start
        return self.log

    def _dp_disc_step(self, data: EncodedFlows, dp_config: DpSgdConfig,
                      noise_rng: np.random.Generator) -> float:
        b = min(self.config.batch_size, len(data))
        key = (id(data.metadata), id(data.measurements),
               id(data.gen_flags), id(dp_config), id(noise_rng), b)
        losses = self._c_dp_disc.run(key, data, b, dp_config, noise_rng)
        return float(np.mean(losses))

    def _dp_disc_core(self, data: EncodedFlows, b: int,
                      dp_config: DpSgdConfig,
                      noise_rng: np.random.Generator):
        # The per-example gradients are tape-owned buffers, so the
        # whole step — including privatize_gradients, which consumes
        # them — sits inside one compiled region.
        losses, noisy = self._dp_critic_gradients(data, b, dp_config,
                                                  noise_rng)
        self._d_opt.step(noisy)
        return losses

    def _dp_critic_gradients(self, data: EncodedFlows, b: int,
                             dp_config: DpSgdConfig,
                             noise_rng: np.random.Generator):
        """Per-example losses and privatized critic gradients of one
        DP-SGD step, from one batched forward/backward pass.

        Each example is its own batch of one, as DP-SGD needs (the
        batch-mean feature then equals the sample).  Instead of ``b``
        separate passes, the examples are stacked as ``(b, 1, F)`` rows
        against per-example parameter leaves — ``(b,) + param.shape``
        broadcast views of the live weights — so one ``grad()`` returns
        every example's gradient, stacked the way
        :func:`privatize_gradients` takes them.  Bit-identical to
        :meth:`_dp_critic_gradients_loop` (DESIGN.md §16).
        """
        idx = taped_draw(lambda: self._rng.integers(0, len(data), size=b))
        with no_grad():
            fake = self._sample_fake(b)
        fake = tuple(t.detach() for t in fake)
        real = self._real_batch(data, idx)
        leaves = [Tensor(np.broadcast_to(p.data, (b,) + p.shape),
                         requires_grad=True) for p in self._d_params]
        n_disc = len(self.disc.parameters())

        def critic_means(critic, params, flat):
            rows = _with_batch_stats(flat.reshape(b, 1, -1), axis=1)
            return _per_example_critic(critic, rows, params).mean(
                axis=(1, 2))

        disc = leaves[:n_disc]
        loss = (critic_means(self.disc, disc, _flatten_sample(*fake))
                - critic_means(self.disc, disc, _flatten_sample(*real)))
        if self.disc_aux is not None:
            aux = leaves[n_disc:]
            loss = loss + self.config.aux_weight * (
                critic_means(self.disc_aux, aux, fake[0])
                - critic_means(self.disc_aux, aux, real[0])
            )
        grads = grad(loss.sum(), leaves)
        noisy = privatize_gradients([g.data for g in grads], dp_config,
                                    noise_rng)
        return loss, noisy

    def _dp_critic_gradients_loop(self, data: EncodedFlows, b: int,
                                  dp_config: DpSgdConfig,
                                  noise_rng: np.random.Generator):
        """Reference per-example loop for :meth:`_dp_critic_gradients`
        (one batch-1 forward/backward per example); kept as the
        regression-test oracle for the batched pass."""
        idx = taped_draw(lambda: self._rng.integers(0, len(data), size=b))
        with no_grad():
            fake = self._sample_fake(b)
        fake = tuple(t.detach() for t in fake)
        fake_flat_all = _flatten_sample(*fake)

        per_example = []
        losses = []
        for j in range(b):
            # View slices of the taped index buffer, so a replayed tape
            # gathers whatever rows the fresh draw selects.
            real = self._real_batch(data, idx[j:j + 1])
            # Per-example DP gradients: each example forms its own
            # "batch", so the batch-mean feature equals the sample.
            real_flat = _with_batch_stats(_flatten_sample(*real))
            fake_j = _with_batch_stats(fake_flat_all[j:j + 1])
            loss = self.disc(fake_j).mean() - self.disc(real_flat).mean()
            if self.disc_aux is not None:
                loss = loss + self.config.aux_weight * (
                    self.disc_aux(
                        _with_batch_stats(fake[0][j:j + 1])).mean()
                    - self.disc_aux(_with_batch_stats(real[0])).mean()
                )
            grads = grad(loss, self._d_params)
            per_example.append([g.data for g in grads])
            losses.append(loss)
        noisy = privatize_gradients(stack_examples(per_example), dp_config,
                                    noise_rng)
        return losses, noisy

    # ------------------------------------------------------------------
    def _infer_core(self, n: int):
        """One no-grad sampler forward at batch size ``n`` (a bucket
        value).  Runs under ``compiled_infer``: recorded once per
        bucket, replayed warm with the draws re-drawn through the
        LiveRng proxy in recorded stream order."""
        rng = self._infer_rng
        z_meta = taped_draw(lambda: rng.normal(
            size=(n, self.config.noise_dim)))
        z_meas = taped_draw(lambda: rng.normal(
            size=(n, self.config.max_timesteps, self.config.noise_dim)))
        metadata = self.gen_meta(tensor(z_meta), rng, hard=False)
        measurements, flags = self.gen_meas(metadata, z_meas)
        return [metadata, measurements, flags]

    def generate(self, n: int, seed: Optional[int] = None) -> EncodedFlows:
        """Sample n synthetic flows (tensor form; decode with the
        FlowTensorEncoder).

        The request is padded up to :func:`~repro.nn.tape.bucket_size`
        and sliced back, so service-style calls of varying size replay
        a handful of warm tapes instead of recording per size.  The
        padding is part of the sampler's semantics — the eager oracle
        (``REPRO_NN_TAPE=0``) pads identically, so eager and compiled
        sampling stay bit-identical for every ``n``.
        """
        if n < 1:
            raise ValueError("must generate at least one flow")
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        n_pad = bucket_size(n)
        self._infer_rng.rng = rng
        metadata, measurements, flags = self._c_infer.run((n_pad,), n_pad)
        metadata = metadata[:n]
        measurements = measurements[:n]
        flags = flags[:n]
        # Generation flags: active prefix up to the first sub-0.5 flag;
        # every flow emits at least one record.  argmin finds the first
        # False per row (bitwise-identical to the per-flow loop it
        # replaced); all-active rows keep the full horizon.
        active = flags > 0.5
        stop = np.where(active.all(axis=1), active.shape[1],
                        np.argmin(active, axis=1))
        stop = np.maximum(stop, 1)
        hard_flags = (np.arange(active.shape[1])[None, :]
                      < stop[:, None]).astype(flags.dtype)
        return EncodedFlows(metadata, measurements, hard_flags)

    def _validate_data(self, data: EncodedFlows) -> None:
        c = self.config
        if data.metadata.shape[1] != c.metadata_dim:
            raise ValueError(
                f"metadata width {data.metadata.shape[1]} != {c.metadata_dim}")
        if data.measurements.shape[1:] != (c.max_timesteps, c.measurement_dim):
            raise ValueError("measurement tensor shape mismatch")
        if len(data) == 0:
            raise ValueError("training data is empty")
