"""Numeric description of the two-stage continual-pretraining plan:
learning-rate schedules, optimizer settings, and token budgets.

This module never runs training; schedules export as step->lr tables any
trainer can consume.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .documents import write_json


@dataclass(frozen=True)
class ScheduleConfig:
    total_steps: int
    warmup_steps: int
    lr_peak: float
    lr_min: float
    plateau_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if not 1 <= self.warmup_steps < self.total_steps:
            raise ValueError("warmup_steps must lie in [1, total_steps)")
        if not 0.0 < self.lr_min <= self.lr_peak:
            raise ValueError("need 0 < lr_min <= lr_peak")
        if not 0.0 <= self.plateau_frac < 1.0:
            raise ValueError("plateau_frac must lie in [0, 1)")
        if self.plateau_start <= self.warmup_steps:
            raise ValueError("plateau must start after warmup ends")

    @property
    def plateau_start(self) -> int:
        return math.floor(self.total_steps * (1.0 - self.plateau_frac))


@dataclass(frozen=True)
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.95
    epsilon: float = 1e-5
    grad_clip: float = 1.0
    optimizer_name: str = "adamw"

    def __post_init__(self) -> None:
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie strictly in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.grad_clip <= 0.0:
            raise ValueError("grad_clip must be positive")


class Scope(str, Enum):
    NEW_EMBEDDINGS_ONLY = "new_embeddings_only"
    FULL_MODEL = "full_model"


@dataclass(frozen=True)
class StagePlan:
    name: str
    schedule: ScheduleConfig
    optimizer: OptimizerConfig
    batch_tokens: int
    trainable_scope: Scope
    reset_optimizer_state: bool = True

    def __post_init__(self) -> None:
        if self.batch_tokens <= 0:
            raise ValueError("batch_tokens must be positive")
        if not isinstance(self.trainable_scope, Scope):
            object.__setattr__(self, "trainable_scope", Scope(self.trainable_scope))


def lr_at(step: int, cfg: ScheduleConfig) -> float:
    """Learning rate at an integer step.

    Linear warmup from 0 to lr_peak, cosine decay to lr_min, then a plateau
    at lr_min from floor(total*(1-plateau_frac)) onward.
    """
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    if step <= cfg.warmup_steps:
        return cfg.lr_peak * step / cfg.warmup_steps
    start = cfg.plateau_start
    if step >= start:
        return cfg.lr_min
    progress = (step - cfg.warmup_steps) / (start - cfg.warmup_steps)
    return cfg.lr_min + 0.5 * (cfg.lr_peak - cfg.lr_min) * (1.0 + math.cos(math.pi * progress))


def schedule_table(cfg: ScheduleConfig) -> np.ndarray:
    """lr for every step 0..total_steps as a float64 array."""
    steps = np.arange(cfg.total_steps + 1, dtype=np.float64)
    warm = cfg.lr_peak * steps / cfg.warmup_steps
    start = cfg.plateau_start
    progress = (steps - cfg.warmup_steps) / (start - cfg.warmup_steps)
    decay = cfg.lr_min + 0.5 * (cfg.lr_peak - cfg.lr_min) * (1.0 + np.cos(np.pi * progress))
    out = np.where(steps <= cfg.warmup_steps, warm, np.where(steps >= start, cfg.lr_min, decay))
    return out


def token_budget(plan: StagePlan, corpus_tokens: int) -> dict:
    """Total trained tokens and corpus epochs implied by a stage plan."""
    if corpus_tokens <= 0:
        raise ValueError("corpus_tokens must be positive")
    total = plan.schedule.total_steps * plan.batch_tokens
    return {"total_tokens": total, "epochs": total / corpus_tokens}


def builtin_plans() -> dict[str, StagePlan]:
    """The two built-in continual-pretraining stages."""
    stage1 = StagePlan(
        name="stage1",
        schedule=ScheduleConfig(
            total_steps=2_500,
            warmup_steps=250,
            lr_peak=2.5e-4,
            lr_min=2.5e-5,
            plateau_frac=0.0,
        ),
        optimizer=OptimizerConfig(beta1=0.9, beta2=0.999, epsilon=1e-5, grad_clip=1.0),
        batch_tokens=1_500_000,
        trainable_scope=Scope.NEW_EMBEDDINGS_ONLY,
    )
    stage2 = StagePlan(
        name="stage2",
        schedule=ScheduleConfig(
            total_steps=24_800,
            warmup_steps=248,
            lr_peak=2.5e-5,
            lr_min=2.5e-6,
            plateau_frac=0.10,
        ),
        optimizer=OptimizerConfig(beta1=0.9, beta2=0.95, epsilon=1e-5, grad_clip=1.0),
        batch_tokens=4_500_000,
        trainable_scope=Scope.FULL_MODEL,
    )
    return {"stage1": stage1, "stage2": stage2}


def plan_descriptor(plan: StagePlan) -> dict:
    desc = asdict(plan)
    desc["trainable_scope"] = plan.trainable_scope.value
    desc["schedule"]["plateau_start"] = plan.schedule.plateau_start
    return desc


def export_plan_json(plan: StagePlan, path: str | Path) -> None:
    write_json(path, plan_descriptor(plan))


def export_plan_csv(plan: StagePlan, path: str | Path) -> None:
    """Full-resolution "step,lr" table."""
    table = schedule_table(plan.schedule)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["step", "lr"])
        for step, lr in enumerate(table):
            writer.writerow([step, repr(float(lr))])
