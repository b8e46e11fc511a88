"""Two-branch MLP with shared weights: encoder, two heads, linear classifier.

One parameter store serves both training branches; "two branches" means the
same nodes are used in two forward passes over two augmented views, so weight
sharing is literal. The forward pass exposes everything the losses need:

    features = encoder(x)          relu MLP, He-scaled init
    z        = proj1(features)     projection head
    h        = proj2(z)            predictor head (affine, relu, affine)
    logits   = features @ W^T + b  linear classifier, near-zero init

The optimizer is SGD with momentum and L2 weight decay folded into the
velocity: v <- m*v + g + wd*theta; theta <- theta - lr*v, applied uniformly
to every trainable array. The caller holds the optimizer state as a
``velocity`` dict keyed by parameter node and passes lr, momentum and weight
decay to every ``sgd_step``. Parameter arrays are replaced, never mutated, so
graphs built before a step stay valid.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Node
from .errors import ConfigError, ContractError, ShapeError, TrainingDivergedError


@dataclass(frozen=True)
class ArchSpec:
    """Network dimensions. hidden_dims are the encoder widths before the
    feature layer; proj1_hidden 0 means a single affine projection."""

    input_dim: int
    num_classes: int
    hidden_dims: tuple[int, ...] = (128, 64)
    feature_dim: int = 16
    proj_dim: int = 16
    proj1_hidden: int = 0
    predictor_hidden: int = 16

    def __post_init__(self):
        dims = (
            self.input_dim,
            self.num_classes,
            self.feature_dim,
            self.proj_dim,
            self.predictor_hidden,
            *self.hidden_dims,
        )
        if any(d < 1 for d in dims):
            raise ConfigError(f"ArchSpec: every dimension must be >= 1, got {self}")
        if self.proj1_hidden < 0:
            raise ConfigError("ArchSpec: proj1_hidden must be >= 0")


@dataclass
class NetworkParams:
    """All trainable nodes, grouped by role. Layers are (W, b) with W shaped
    (out, in), so the classifier is (C, d) with one row per class."""

    encoder: list[tuple[Node, Node]]
    proj1: list[tuple[Node, Node]]
    proj2: list[tuple[Node, Node]]
    classifier_w: Node
    classifier_b: Node
    arch: ArchSpec

    def named_parameters(self) -> list[tuple[str, Node]]:
        out: list[tuple[str, Node]] = []
        for group, layers in (("encoder", self.encoder), ("proj1", self.proj1), ("proj2", self.proj2)):
            for i, (w, b) in enumerate(layers):
                out.append((f"{group}.{i}.w", w))
                out.append((f"{group}.{i}.b", b))
        out.append(("classifier.w", self.classifier_w))
        out.append(("classifier.b", self.classifier_b))
        return out

    def trainable(self, freeze_classifier_bias: bool = False) -> list[tuple[str, Node]]:
        pairs = self.named_parameters()
        if freeze_classifier_bias:
            pairs = [(n, p) for n, p in pairs if n != "classifier.b"]
        return pairs


@dataclass
class ForwardOut:
    """Per-view activations: all nodes of one forward pass."""

    features: Node
    z: Node
    h: Node
    logits: Node


def init_params(arch: ArchSpec, seed: int) -> NetworkParams:
    """Seeded initialization.

    Affine layers followed by relu get He-scaled Gaussians std sqrt(2/fan_in);
    plain affine layers get std sqrt(1/fan_in); the classifier starts near
    zero (std 1e-2) to break Gram-matching symmetry without dominating early
    logits. All biases start at zero. Deterministic per seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))

    def layer(fan_in: int, fan_out: int, gain: float) -> tuple[Node, Node]:
        std = np.sqrt(gain / fan_in)
        w = ad.param(rng.standard_normal((fan_out, fan_in)) * std)
        b = ad.param(np.zeros(fan_out))
        return w, b

    encoder: list[tuple[Node, Node]] = []
    widths = (arch.input_dim, *arch.hidden_dims, arch.feature_dim)
    for fi, fo in zip(widths[:-1], widths[1:]):
        encoder.append(layer(fi, fo, 2.0))

    proj1: list[tuple[Node, Node]] = []
    if arch.proj1_hidden > 0:
        proj1.append(layer(arch.feature_dim, arch.proj1_hidden, 2.0))
        proj1.append(layer(arch.proj1_hidden, arch.proj_dim, 1.0))
    else:
        proj1.append(layer(arch.feature_dim, arch.proj_dim, 1.0))

    proj2 = [
        layer(arch.proj_dim, arch.predictor_hidden, 2.0),
        layer(arch.predictor_hidden, arch.proj_dim, 1.0),
    ]

    cw = ad.param(rng.standard_normal((arch.num_classes, arch.feature_dim)) * 1e-2)
    cb = ad.param(np.zeros(arch.num_classes))
    return NetworkParams(encoder=encoder, proj1=proj1, proj2=proj2, classifier_w=cw, classifier_b=cb, arch=arch)


def forward(params: NetworkParams, x) -> ForwardOut:
    """One view through the shared stack. ``x`` is an (N, input_dim) array or
    node; returns features, projection, prediction, and logits nodes."""
    node = x if isinstance(x, Node) else ad.constant(np.asarray(x, dtype=np.float64))
    if node.data.ndim != 2 or node.shape[1] != params.arch.input_dim:
        raise ShapeError(f"forward: input shape {node.shape} vs input_dim {params.arch.input_dim}")

    feats = node
    for w, b in params.encoder:
        feats = ad.relu(ad.linear(feats, w, b))

    z = feats
    for i, (w, b) in enumerate(params.proj1):
        z = ad.linear(z, w, b)
        if i + 1 < len(params.proj1):
            z = ad.relu(z)

    (w0, b0), (w1, b1) = params.proj2
    h = ad.linear(ad.relu(ad.linear(z, w0, b0)), w1, b1)

    logits = ad.linear(feats, params.classifier_w, params.classifier_b)
    return ForwardOut(features=feats, z=z, h=h, logits=logits)


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(
    named_params: list[tuple[str, Node]],
    grads: dict[Node, Array],
    velocity: dict[Node, Array],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """v <- m*v + g + wd*theta; theta <- theta - lr*v, for every parameter.

    ``velocity`` is the caller's optimizer state, one buffer per parameter
    node, filled on first use. Parameters absent from ``grads`` get an
    exact-zero gradient (still decay). A non-finite gradient aborts with the
    parameter's name before anything is modified, so the previous state stays
    intact.
    """
    updates: list[tuple[Node, Array]] = []
    for name, p in named_params:
        g = grads.get(p)
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"sgd_step: non-finite gradient for {name}")
        updates.append((p, g))
    for p, g in updates:
        v = velocity.get(p)
        if v is None:
            v = np.zeros_like(p.data)
        v = momentum * v + g + weight_decay * p.data
        velocity[p] = v
        p.data = p.data - lr * v


# ---------------------------------------------------------------------------
# parameter snapshots

SNAPSHOT_VERSION = 1


def save_params(params: NetworkParams, out_dir: str | Path) -> Path:
    """Write one .npy per parameter plus a manifest with names and shapes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, node in params.named_parameters():
        fname = name.replace(".", "_") + ".npy"
        np.save(out / fname, node.data)
        entries.append({"name": name, "shape": list(node.shape), "file": fname})
    manifest = {
        "format_version": SNAPSHOT_VERSION,
        "arch": asdict(params.arch),
        "params": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out / "manifest.json"


def load_params(snapshot_dir: str | Path) -> NetworkParams:
    """Rebuild a NetworkParams from a snapshot directory; shapes validated."""
    snap = Path(snapshot_dir)
    manifest_path = snap / "manifest.json"
    if not manifest_path.exists():
        raise ContractError(f"load_params: no manifest.json under {snap}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != SNAPSHOT_VERSION:
        raise ContractError(f"load_params: unsupported snapshot version {manifest.get('format_version')}")
    arch_raw = manifest["arch"]
    arch = ArchSpec(
        **{f.name: int(arch_raw[f.name]) for f in fields(ArchSpec) if f.name != "hidden_dims"},
        hidden_dims=tuple(int(d) for d in arch_raw["hidden_dims"]),
    )
    params = init_params(arch, seed=0)
    by_name = dict(params.named_parameters())
    listed = {entry["name"] for entry in manifest["params"]}
    if listed != set(by_name):
        raise ContractError("load_params: manifest parameter names do not match the architecture")
    for entry in manifest["params"]:
        arr = np.load(snap / entry["file"])
        node = by_name[entry["name"]]
        if list(arr.shape) != entry["shape"] or arr.shape != node.shape:
            raise ShapeError(f"load_params: shape mismatch for {entry['name']}")
        node.data = np.ascontiguousarray(arr, dtype=np.float64)
    return params
