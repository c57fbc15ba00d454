"""Two-stage training loop.

Stage one pretrains encoder and decoder as a restorer of both modalities;
stage two switches the objective to fusion, adding the cross-modal
interaction and the fusion blocks to the optimized set. Parameters carry
over between stages, optimizer moments restart. Every step appends one
RFC-4180 CSV row to the loss log; an op whose result joins the graph and
holds NaN/Inf aborts the run with the offending op named (``autodiff._make``).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import ImagePair, crop_sampler
from .losses import stage1_loss, stage2_loss
from .model import ModelParams, build_model, fuse_pair, image_to_tensor, \
    restore, stage1_parameter_tree, stage2_parameter_tree
from .optim import AdamState, adam_step, lr_at_epoch
from .params import named_parameters

LOG_HEADER = ["stage", "epoch", "step", "lr", "intensity", "ssim_or_grad",
              "total"]


@dataclass
class TrainResult:
    model: ModelParams
    config: RunConfig
    log_rows: list
    checkpoint_path: str
    stage1_steps: int
    stage2_steps: int


def _format(value: float) -> str:
    return "%.17g" % value


def _batches(n_pairs: int, batch: int, rng: np.random.Generator):
    order = rng.permutation(n_pairs)
    for start in range(0, n_pairs, batch):
        yield order[start:start + batch]


def _run_stage(stage: str, model: ModelParams, cfg: RunConfig,
               dataset: list[ImagePair], rng: np.random.Generator,
               epochs: int, epoch_offset: int, step_offset: int,
               log_rows: list) -> tuple[int, AdamState]:
    """One training stage; returns (steps executed, optimizer state)."""
    tree = (stage1_parameter_tree if stage == "I"
            else stage2_parameter_tree)(model)
    named = [pair for section in tree for pair in named_parameters(section)]
    targets = [t for _, t in named]
    adam = AdamState()
    steps = 0
    for epoch in range(epochs):
        lr = lr_at_epoch(cfg.lr, cfg.lr_decay, cfg.lr_decay_every,
                         epoch_offset + epoch)
        for batch_idx in _batches(len(dataset), cfg.batch, rng):
            # backward gives each a gradient; adam_step refuses a None one
            for _, t in named:
                t.grad = None
            scale = 1.0 / len(batch_idx)
            intensity = structural = total = 0.0
            for idx in batch_idx:
                pair = crop_sampler(dataset[idx], cfg.crop, rng)
                img_a = image_to_tensor(pair.a)
                img_b = image_to_tensor(pair.b)

                def sample():
                    if stage == "I":
                        pred_a, pred_b = parallel.both(
                            (restore, img_a, model), (restore, img_b, model))
                        breakdown = stage1_loss(img_a, pred_a, img_b, pred_b)
                    else:
                        fused = fuse_pair(img_a, img_b, model)
                        breakdown = stage2_loss(fused, img_a, img_b)
                    (breakdown.total * Tensor(scale)).backward()
                    return breakdown
                # modality b's restore or encode, forward and backward, runs
                # on the helper when there is one; a sample whose helper is
                # lost in backward reruns serially (see parallel)
                breakdown = parallel.training_step(sample, targets)
                intensity += breakdown.intensity.item() * scale
                structural += breakdown.ssim_or_grad.item() * scale
                total += breakdown.total.item() * scale
            adam_step(named, adam, lr)
            steps += 1
            log_rows.append([stage, str(epoch_offset + epoch),
                             str(step_offset + steps), _format(lr),
                             _format(intensity), _format(structural),
                             _format(total)])
    for _, t in named:
        t.grad = None
    return steps, adam


def write_loss_log(path: str, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_HEADER)
        writer.writerows(rows)


def train(cfg: RunConfig, dataset: list[ImagePair],
          out_dir: str | None = None) -> TrainResult:
    """Run both stages on a dataset; writes loss log and checkpoints."""
    cfg.validate()
    if not dataset:
        raise ad.ContractError("training needs at least one image pair")
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(cfg)
    rng = np.random.default_rng(cfg.seed)
    log_rows: list = []
    ckpt_path = os.path.join(out_dir, "checkpoint.tmam")

    s1, adam1 = _run_stage("I", model, cfg, dataset, rng, cfg.epochs_stage1,
                           epoch_offset=0, step_offset=0, log_rows=log_rows)
    save_checkpoint(os.path.join(out_dir, "checkpoint_stage1.tmam"),
                    cfg, model, adam1, s1, 0)
    s2, adam2 = _run_stage("II", model, cfg, dataset, rng, cfg.epochs_stage2,
                           epoch_offset=cfg.epochs_stage1, step_offset=s1,
                           log_rows=log_rows)
    save_checkpoint(ckpt_path, cfg, model, adam2, s1, s2)
    write_loss_log(os.path.join(out_dir, "loss_log.csv"), log_rows)
    return TrainResult(model, cfg, log_rows, ckpt_path, s1, s2)
