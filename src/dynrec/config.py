"""Run configuration: one flat dataclass, a tiny `key = value` file format,
and `--set key=value` style overrides.

Every knob of the pipeline lives on `RunConfig` so a run is fully described
by (config, seed, input path). Values are validated eagerly — a bad range
(e.g. a zero history window) raises ValueError at construction time rather
than failing deep inside a run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import IO, Iterable


@dataclass(frozen=True)
class RunConfig:
    """All knobs for pre-training, fine-tuning and the dynamic protocol."""

    # model
    d: int = 64  # embedding dimension
    layers: int = 3  # propagation depth
    init_std: float = 0.1  # gaussian std for embedding init

    # temporal edge weighting
    tau_hours: float = 24.0  # timestep interval for relative timesteps

    # dynamic protocol
    omega: int = 2  # history window length for interpolated re-init
    phi: float = -0.1  # retention slope for the condensed graph; < 0 favors recent snapshots
    pretrain_span_hours: float = 120.0  # log prefix used for pre-training
    granularity_hours: float = 24.0  # snapshot width

    # optimization
    learning_rate: float = 1e-3
    batch_size: int = 1024
    max_epochs: int = 100  # pre-training epoch cap
    patience: int = 10  # early-stop patience on validation recall
    l2_reg: float = 1e-4
    val_fraction: float = 0.05  # per-user holdout fraction for validation
    finetune_epochs: int = 20  # fixed gate-tuning epochs per snapshot

    # evaluation
    k: int = 20  # ranking cutoff
    eval_candidates: int = 0  # 0 = rank all items; >0 = sampled candidates

    # reproducibility
    seed: int = 0

    # ablation switches
    no_temporal: bool = False  # drop time-aware edge weighting
    no_prompt_tuning: bool = False  # skip the condensed-history pre-pass
    no_gate: bool = False  # no learnable gate; plain propagation only
    no_interp_update: bool = False  # re-init from pre-trained rows only

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.layers < 0:
            raise ValueError("layers must be >= 0")
        if self.init_std <= 0:
            raise ValueError("init_std must be positive")
        if self.tau_hours <= 0:
            raise ValueError("tau_hours must be positive")
        if self.omega < 1:
            raise ValueError("omega must be >= 1")
        if not -1.0 <= self.phi <= 1.0:
            raise ValueError("phi must lie in [-1, 1]")
        if self.pretrain_span_hours <= 0 or self.granularity_hours <= 0:
            raise ValueError("pretrain_span_hours and granularity_hours must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.l2_reg < 0:
            raise ValueError("l2_reg must be >= 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.eval_candidates < 0:
            raise ValueError("eval_candidates must be >= 0")

    # -- derived quantities ------------------------------------------------

    @property
    def tau_seconds(self) -> float:
        return self.tau_hours * 3600.0

    @property
    def pretrain_span_seconds(self) -> int:
        return int(round(self.pretrain_span_hours * 3600.0))

    @property
    def granularity_seconds(self) -> int:
        return int(round(self.granularity_hours * 3600.0))

    def train_config(self) -> "TrainConfig":
        """Optimizer settings for pre-training."""
        from .training import TrainConfig

        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            patience=min(self.patience, max(self.max_epochs, 1)),
            l2_reg=self.l2_reg,
            val_fraction=self.val_fraction,
            eval_k=self.k,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    """Parse a raw string into the declared type of config field `key`."""
    if key not in _FIELDS:
        raise ValueError(f"unknown config key: {key!r}")
    target = _FIELDS[key]
    text = raw.strip()
    if target == "bool":
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {key!r}: expected a boolean, got {text!r}")
    if target == "int":
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"config key {key!r}: expected an integer, got {text!r}") from None
    if target == "float":
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"config key {key!r}: expected a number, got {text!r}") from None
    return text


def parse_config(
    source: IO[str] | Iterable[str] | None = None,
    overrides: Iterable[str] = (),
    base: RunConfig | None = None,
) -> RunConfig:
    """Build a RunConfig from a `key = value` file plus `key=value` overrides.

    File format: one assignment per line, `#` starts a comment, blank lines
    ignored. Unknown keys and malformed lines raise ValueError with the line
    number. Overrides (from the command line) are applied after the file.
    """
    values: dict = {}
    if source is not None:
        for lineno, line in enumerate(source, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"malformed config line {lineno}: {line.strip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            values[key] = _coerce(key, raw)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"malformed override {item!r}: expected key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        values[key] = _coerce(key, raw)
    cfg = base if base is not None else RunConfig()
    return dataclasses.replace(cfg, **values)


def load_config(path: str, overrides: Iterable[str] = ()) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh, overrides)

