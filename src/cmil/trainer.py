"""Joint training of both branches, checkpointing, and inference.

The loss is BCE on each branch's slide logit plus an L2 penalty on the
post-softmax patch attention; the forward pass ends at the logits, and only
`predict` takes their sigmoid. Training runs at batch size 1 (bags differ in
size); the perturbed top-K noise is resampled every step from a dedicated
stream, and the final-epoch model is the result — no early stopping.
Each step projects its own bag into concept space and keeps no activations
of other bags, so what training holds does not grow with the number of bags.
`AdamW` keeps the parameters, gradients and both moments in four flat vectors
and steps them through two fixed scratch blocks, so its scratch does not grow
with the model.

A checkpoint is a format-version-2 blob pair (see `bagio`) under magic "CMCK":
the header's rows and columns are C and D, and its sections are the C x D f64
concept embeddings, then each model parameter as its own f64 section in
sorted-name order. The sidecar holds `concepts` (names, prompt template),
`data_hash`, `epoch` and `train_config`. `parameter_shapes` declares every
parameter once: `init_model` draws it, `save_checkpoint` writes it and
`load_checkpoint` sizes its section from the embedded config before anything is
allocated, then builds the model from the sections it read, drawing nothing.

A process that trains keeps its freed heap: before the first step `train` sets
glibc's trim threshold to 1 GiB and fixes its mmap threshold at 32 MiB, so the
memory each step's tape frees is reused by the next step instead of being
handed back to the kernel and faulted in again. Where libc has no `mallopt`
nothing changes.
"""

from __future__ import annotations

import ctypes
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bagio import CKPT_MAGIC, Bag, ConceptSet, DatasetSplit, _read_blob, _write_blob, read_bag
from .concept_branch import ConceptBranchParams, ConceptForward, concept_forward
from .errors import (ConfigError, DataValidationError, FormatError, TrainingDivergedError,
                     check_field_types, config_from_dict)
from .image_branch import ImageBranchParams, ImageForward, image_forward, named_tensors
from .metrics import auc
from .projection import check_dim, project
from .topk import Selection, TopKConfig, gather_concepts, select

# RNG stream ids hung off the config seed
_INIT_STREAM = 0
_SHUFFLE_STREAM = 1
_NOISE_STREAM = 2

# "image-only"/"concept-only" train one branch (ablations)
MODES = ("dual", "image-only", "concept-only")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-3
    epochs: int = 300
    lam: float = 0.05
    seed: int = 0
    d_h: int = 256
    d_a: int = 128
    gamma: float = 0.75
    temperature: float = 3.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    mode: str = "dual"  # one of MODES
    topk: TopKConfig = TopKConfig()

    def __post_init__(self):
        check_field_types(self)
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode {self.mode!r}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0 or self.lam < 0:
            raise ConfigError("weight_decay and lam must be >= 0")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if min(self.d_h, self.d_a) < 1:
            raise ConfigError("d_h and d_a must be >= 1")
        if not 0 < self.gamma < 1:
            raise ConfigError(f"gamma must be in (0,1), got {self.gamma}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")


# -- loss -----------------------------------------------------------------------


def bce_loss(y: int, z: Tensor) -> Tensor:
    """-[y ln sigmoid(z) + (1-y) ln(1-sigmoid(z))] of a logit z: softplus(-z) for
    y = 1, softplus(z) for y = 0, so a confidently wrong z keeps its gradient."""
    if y not in (0, 1):
        raise DataValidationError(f"label must be 0 or 1, got {y!r}")
    return ad.softplus(-1.0 * z if y == 1 else z)


def total_loss(y: int, img_logit: Tensor, concept_logit: Tensor, alpha: Tensor,
               lam: float, mode: str) -> dict[str, Tensor]:
    """The loss terms the epoch log sums: bce_img, bce_concept, l2_alpha and the total."""
    bi = bce_loss(y, img_logit)
    bc = bce_loss(y, concept_logit)
    l2 = ad.sq_l2(alpha)
    if mode == "image-only":
        total = bi + lam * l2
    elif mode == "concept-only":
        total = bc
    else:
        total = bi + bc + lam * l2
    return {"bce_img": bi, "bce_concept": bc, "l2_alpha": l2, "total": total}


# -- optimizer -------------------------------------------------------------------


class AdamW:
    """Adaptive moments with decoupled weight decay (beta1/beta2/eps per config).

    The optimized parameters live in one contiguous float64 vector and their
    gradients in another: each ``p.data`` is copied into its slice in dict
    order and rebound to a view of it, and each ``p.grad`` is bound to a view
    of the same slice of the zeroed gradient vector, which ``backward``
    accumulates into. A step checks all gradients before anything moves,
    then updates the moments and the vector block by block with in-place
    ufuncs in the operation order of the per-parameter formula, through two
    scratch blocks of at most ``_BLOCK`` values, so grouping the parameters
    changes no bit and the scratch does not grow with the model.
    """

    _BLOCK = 32_768  # three blocks hold the default model's 87,822 values (C = 12, D = 64)

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float,
                 beta1: float, beta2: float, eps: float):
        self.params = dict(params)
        self.lr, self.wd = lr, weight_decay
        self.b1, self.b2, self.eps = beta1, beta2, eps
        self.t = 0
        size = sum(p.data.size for p in self.params.values())
        self._x = np.empty(size)
        self._g = np.zeros(size)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._s = np.empty(min(size, self._BLOCK))
        self._r = np.empty_like(self._s)
        offset = 0
        for p in self.params.values():
            end = offset + p.data.size
            self._x[offset:end] = p.data.ravel()
            p.data = self._x[offset:end].reshape(p.data.shape)
            p.grad = self._g[offset:end].reshape(p.data.shape)
            offset = end

    def zero_grad(self):
        self._g.fill(0.0)

    def step(self):
        if not np.isfinite(self._g).all():
            bad = next(name for name, p in self.params.items() if not np.isfinite(p.grad).all())
            raise TrainingDivergedError(f"non-finite gradient in {bad}")
        self.t += 1
        c1, c2 = 1 - self.b1**self.t, 1 - self.b2**self.t
        for lo in range(0, self._x.size, self._BLOCK):
            block = slice(lo, lo + self._BLOCK)
            x, g, m, v = self._x[block], self._g[block], self._m[block], self._v[block]
            s, r = self._s[:x.size], self._r[:x.size]
            m *= self.b1  # m = b1*m + (1-b1)*g
            np.multiply(g, 1 - self.b1, out=s)
            m += s
            v *= self.b2  # v = b2*v + ((1-b2)*g)*g
            np.multiply(g, 1 - self.b2, out=s)
            s *= g
            v += s
            np.divide(m, c1, out=s)  # x -= lr*(m_hat/(sqrt(v_hat)+eps) + wd*x)
            np.divide(v, c2, out=r)
            np.sqrt(r, out=r)
            r += self.eps
            s /= r
            np.multiply(x, self.wd, out=r)
            s += r
            s *= self.lr
            x -= s


# -- model ------------------------------------------------------------------------


@dataclass
class CmilModel:
    image: ImageBranchParams
    concept: ConceptBranchParams
    concepts: ConceptSet
    topk: TopKConfig
    mode: str  # TrainConfig.mode: picks the selection and the deciding head

    def parameters(self) -> dict[str, Tensor]:
        out = self.image.tensors()
        out.update(self.concept.tensors())
        return out


def parameter_shapes(cfg: TrainConfig, C: int, D: int) -> dict[str, tuple[int, tuple[int, ...]]]:
    """The (init fan-in, shape) of every model parameter for C concepts and D-dim
    embeddings, keyed by full name in init draw order: each branch's fields in
    declaration order, image first."""
    d_h, d_a, K = cfg.d_h, cfg.d_a, cfg.topk.K
    return {
        "image.proj_w": (D, (D, d_h)),
        "image.proj_b": (D, (d_h,)),
        "image.attn_v": (d_h, (d_h, d_a)),
        "image.attn_u": (d_h, (d_h, d_a)),
        "image.attn_w": (d_a, (d_a,)),
        "image.clf_w": (d_h, (d_h,)),
        "image.clf_b": (d_h, ()),
        "concept.attn_v": (K, (K, d_a)),
        "concept.attn_u": (K, (K, d_a)),
        "concept.attn_w": (d_a, (d_a,)),
        "concept.clf_w": (C, (C,)),
        "concept.clf_b": (C, ()),
    }


def _build_model(cfg: TrainConfig, concepts: ConceptSet, arrays: dict[str, np.ndarray]) -> CmilModel:
    """The model holding `arrays`, keyed as in `parameter_shapes`, as its parameters."""
    def branch(prefix):
        return {name[len(prefix):]: Tensor(a) for name, a in arrays.items() if name.startswith(prefix)}

    image = ImageBranchParams(**branch("image."))
    concept = ConceptBranchParams(**branch("concept."), gamma=cfg.gamma, temperature=cfg.temperature)
    return CmilModel(image, concept, concepts, cfg.topk, cfg.mode)


def init_model(cfg: TrainConfig, concepts: ConceptSet) -> CmilModel:
    """Draw each parameter uniform in +-1/sqrt(fan-in), in table order, from the init stream."""
    rng = np.random.default_rng((cfg.seed, _INIT_STREAM))
    return _build_model(cfg, concepts, {
        name: rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=shape)
        for name, (fan_in, shape) in parameter_shapes(cfg, concepts.num_concepts, concepts.dim).items()})


def _constant_view(model: CmilModel) -> CmilModel:
    """The model with each parameter a constant over the same array: a forward
    pass on it builds no tape and reads the values AdamW last wrote in place."""
    def freeze(params):
        return replace(params, **{k: ad.constant(t.data) for k, t in named_tensors(params, "").items()})

    return replace(model, image=freeze(model.image), concept=freeze(model.concept))


@dataclass
class JointForward:
    img: ImageForward
    sel: Selection
    f_topk: Tensor
    con: ConceptForward
    logit: Tensor  # of the head the model's mode decides on


def joint_forward(
    model: CmilModel,
    embeddings: np.ndarray,
    f_values: np.ndarray,
    rng: np.random.Generator | None = None,
) -> JointForward:
    """Forward pass of both branches with the selection of the model's mode.

    Selection is perturbed top-K when `rng` is given (training) and hard top-K
    otherwise; concept-only models take the first K patches. `logit` is the
    image head's for image-only models and the concept head's otherwise.
    """
    img = image_forward(ad.constant(embeddings), model.image)
    if model.mode == "concept-only":
        # hard top-K under untrained uniform attention = first K patches
        sel = Selection(np.arange(model.topk.K))
    else:
        sel = select(img.alpha, model.topk, rng=rng)
    f_topk = gather_concepts(f_values, sel)
    con = concept_forward(f_topk, model.concept)
    logit = img.logit if model.mode == "image-only" else con.logit
    return JointForward(img, sel, f_topk, con, logit)


# -- training loop ------------------------------------------------------------------


def _load_bags(paths) -> list[Bag]:
    return [read_bag(p) for p in paths]


def _keep_freed_heap() -> None:
    """Keep the heap a step's tape frees for the next step, for the whole process;
    a no-op where libc has no `mallopt` (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: hand the heap top back only past 1 GiB free
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB (its 64-bit ceiling) use the heap


def train(
    split: DatasetSplit,
    concepts: ConceptSet,
    cfg: TrainConfig,
    bags: dict | None = None,
) -> tuple[CmilModel, list[dict]]:
    """Train on the split's train bags; returns (model, per-epoch metrics records).

    `bags` optionally supplies preloaded {"train": [...], "val": [...]} lists.
    """
    _keep_freed_heap()
    train_bags = bags["train"] if bags else _load_bags(split.train)
    val_bags = bags["val"] if bags else _load_bags(split.val)
    if not train_bags:
        raise DataValidationError("empty training split")
    shared = sorted({b.slide_id for b in train_bags} & {b.slide_id for b in val_bags})
    if shared:
        raise DataValidationError(f"slide_id {shared[0]!r} appears in both train and val")

    # each step projects its own bag; a bag of the wrong D fails here, before step 0
    for b in train_bags:
        check_dim(b.embeddings.shape, concepts)
    model = init_model(cfg, concepts)

    # ablations optimize one branch and leave the other at its initialization
    params = {"dual": model.parameters, "image-only": model.image.tensors,
              "concept-only": model.concept.tensors}[cfg.mode]()
    opt = AdamW(params, cfg.learning_rate, cfg.weight_decay,
                cfg.beta1, cfg.beta2, cfg.eps)
    rng_shuffle = np.random.default_rng((cfg.seed, _SHUFFLE_STREAM))
    rng_noise = np.random.default_rng((cfg.seed, _NOISE_STREAM))

    log: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng_shuffle.permutation(len(train_bags))
        sums = {"bce_img": 0.0, "bce_concept": 0.0, "l2_alpha": 0.0, "total": 0.0}
        for step_no, i in enumerate(order):
            bag = train_bags[i]
            fwd = joint_forward(model, bag.embeddings, project(bag.embeddings, concepts),
                                rng=rng_noise)
            lb = total_loss(bag.label, fwd.img.logit, fwd.con.logit, fwd.img.alpha,
                            cfg.lam, mode=cfg.mode)
            if not np.isfinite(lb["total"].data):
                raise TrainingDivergedError(
                    f"total loss became non-finite on bag {bag.slide_id}",
                    epoch=epoch, step=step_no,
                )
            opt.zero_grad()
            lb["total"].backward()
            try:
                opt.step()
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(str(exc), epoch=epoch, step=step_no) from exc
            for k in sums:
                sums[k] += lb[k].item()
            del fwd, lb  # the next forward runs without this step's tape

        record = {"epoch": epoch}
        record.update({k: v / len(train_bags) for k, v in sums.items()})
        record["val_auc"] = _validation_auc(model, val_bags)
        log.append(record)
    return model, log


def _validation_auc(model: CmilModel, val_bags: list[Bag]) -> float | None:
    """AUC of `predict`'s probability over the val bags; None unless both labels occur."""
    labels = [b.label for b in val_bags]
    if len(set(labels)) < 2:
        return None
    return auc([predict(b, model).prob for b in val_bags], labels)


# -- inference -----------------------------------------------------------------------


@dataclass
class Prediction:
    slide_id: str
    prob_concept: float
    prob_image: float
    prob: float  # of the head the model's mode decides on; decision thresholds it
    decision: str
    alpha: np.ndarray
    hard_indices: np.ndarray
    f_topk: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    bias: float


def predict(bag: Bag, model: CmilModel) -> Prediction:
    """Deterministic inference with the selection and deciding head of the model's mode.

    The concept branch decides, except for image-only models.
    """
    f_values = project(bag.embeddings, model.concepts)
    fwd = joint_forward(_constant_view(model), bag.embeddings, f_values)
    prob = float(ad.sigmoid_value(fwd.logit.data))
    return Prediction(
        slide_id=bag.slide_id,
        prob_concept=float(ad.sigmoid_value(fwd.con.logit.data)),
        prob_image=float(ad.sigmoid_value(fwd.img.logit.data)),
        prob=prob,
        decision="tumor" if prob >= 0.5 else "normal",
        alpha=fwd.img.alpha.data.copy(),
        hard_indices=np.asarray(fwd.sel.hard_indices, dtype=int),
        f_topk=fwd.f_topk.data.copy(),
        beta=fwd.con.attention.gated.data.copy(),
        kappa=fwd.con.kappa.data.copy(),
        bias=model.concept.clf_b.item(),
    )


# -- checkpoint format ------------------------------------------------------------------

_CKPT_FIELDS = ("concepts", "data_hash", "epoch", "train_config")


def save_checkpoint(path: Path, model: CmilModel, cfg: TrainConfig, epoch: int,
                    data_hash: str = "") -> None:
    params = model.parameters()
    sections = [np.ascontiguousarray(a, dtype="<f8")
                for a in (model.concepts.embeddings, *(params[n].data for n in sorted(params)))]
    _write_blob(Path(path), CKPT_MAGIC, sections, 0, {
        "concepts": {"names": list(model.concepts.names),
                     "prompt_template": model.concepts.prompt_template},
        "data_hash": data_hash,
        "epoch": epoch,
        "train_config": asdict(cfg),
    })


def load_checkpoint(path: Path) -> tuple[CmilModel, TrainConfig, dict]:
    path = Path(path)
    cfg = None

    def layout(rows, cols, flags, sidecar):
        nonlocal cfg
        if flags:
            return None
        tc = sidecar()["train_config"]
        if not isinstance(tc, dict):
            raise FormatError(f"{path}: malformed 'train_config'")
        try:
            cfg = config_from_dict(TrainConfig, tc)
        except ConfigError as exc:
            # an invalid embedded config means the file is damaged, not the caller's flags
            raise FormatError(f"{path}: invalid embedded train config: {exc}") from exc
        shapes = parameter_shapes(cfg, rows, cols)
        return [("<f8", (rows, cols)), *(("<f8", shapes[n][1]) for n in sorted(shapes))]

    meta, (embeddings, *values) = _read_blob(path, CKPT_MAGIC, _CKPT_FIELDS, layout)
    cdoc = meta["concepts"]
    if (not isinstance(cdoc, dict) or sorted(cdoc) != ["names", "prompt_template"]
            or not isinstance(cdoc["names"], list) or not all(isinstance(n, str) for n in cdoc["names"])):
        raise FormatError(f"{path}: malformed 'concepts' record")
    concepts = ConceptSet(cdoc["names"], embeddings, cdoc["prompt_template"])
    names = sorted(parameter_shapes(cfg, *embeddings.shape))
    return _build_model(cfg, concepts, dict(zip(names, values, strict=True))), cfg, meta
