"""Two-branch MLP with shared weights: encoder, two heads, linear classifier.

One parameter store serves both training branches; "two branches" means the
same nodes are used in two forward passes over two augmented views, so weight
sharing is literal. The forward pass exposes everything the losses need:

    features = encoder(x)          relu MLP, He-scaled init
    z        = proj1(features)     projection head
    h        = proj2(z)            predictor head (affine, relu, affine)
    logits   = features @ W^T + b  linear classifier, near-zero init

``encode`` runs the same encoder in plain numpy, bit for bit
``forward(params, x).features.data``, with no heads and no graph kept alive
for a ``backward`` that never comes: the per-epoch diagnostics use it,
training steps use ``forward``. Its hidden layers write into scratch arrays
the parameters own, one per layer position and kept at the largest row count
seen, so no whole-split array goes back to the operating system each epoch.

All parameters live in one read-only float64 vector, ``NetworkParams.theta``;
each parameter node's array is a view of its slice, and ``set_theta`` is the
one way to replace it. ``sgd_step`` is SGD with momentum and L2 weight decay
folded into the velocity, on the whole vector: v <- m*v + g + wd*theta;
theta <- theta - lr*v. It makes a new theta and never writes into the old,
so graphs built before a step stay valid and an old theta is a checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Node
from .errors import ConfigError, ContractError, TrainingDivergedError


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
    (out, in), so the classifier is (C, d) with one row per class. ``theta``
    holds every parameter, flattened in ``named_parameters`` order."""

    encoder: list[tuple[Node, Node]]
    proj1: list[tuple[Node, Node]]
    proj2: list[tuple[Node, Node]]
    classifier_w: Node
    classifier_b: Node
    arch: ArchSpec
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    # encode's hidden-layer outputs by layer position; see encode
    _scratch: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.set_theta(np.concatenate([node.data.ravel() for _, node in self.named_parameters()]))

    def set_theta(self, theta: np.ndarray) -> None:
        """Keep ``theta``, a float64 vector of every parameter, without a copy:
        mark it read-only and make each parameter node's array a view of its slice."""
        named = self.named_parameters()
        if theta.dtype != np.float64 or theta.shape != (sum(p.data.size for _, p in named),):
            raise ContractError(f"set_theta: not a float64 vector of every parameter: {theta.dtype} {theta.shape}")
        theta.flags.writeable = False
        start = 0
        for _, p in named:
            p.data = theta[start : start + p.data.size].reshape(p.shape)
            start += p.data.size
        self.theta = theta

    def named_parameters(self) -> list[tuple[str, Node]]:
        out: list[tuple[str, Node]] = []
        for group, layers in (("encoder", self.encoder), ("proj1", self.proj1), ("proj2", self.proj2)):
            for i, (w, b) in enumerate(layers):
                out.append((f"{group}.{i}.w", w))
                out.append((f"{group}.{i}.b", b))
        out.append(("classifier.w", self.classifier_w))
        out.append(("classifier.b", self.classifier_b))
        return out


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

    widths = (arch.input_dim, *arch.hidden_dims, arch.feature_dim)
    encoder = [layer(fi, fo, 2.0) for fi, fo in zip(widths[:-1], widths[1:])]

    if arch.proj1_hidden > 0:
        proj1 = [layer(arch.feature_dim, arch.proj1_hidden, 2.0), layer(arch.proj1_hidden, arch.proj_dim, 1.0)]
    else:
        proj1 = [layer(arch.feature_dim, arch.proj_dim, 1.0)]

    proj2 = [
        layer(arch.proj_dim, arch.predictor_hidden, 2.0),
        layer(arch.predictor_hidden, arch.proj_dim, 1.0),
    ]

    cw = ad.param(rng.standard_normal((arch.num_classes, arch.feature_dim)) * 1e-2)
    cb = ad.param(np.zeros(arch.num_classes))
    return NetworkParams(encoder=encoder, proj1=proj1, proj2=proj2, classifier_w=cw, classifier_b=cb, arch=arch)


def forward(params: NetworkParams, x: Array) -> ForwardOut:
    """One view through the shared stack. ``x`` is an (N, input_dim) array;
    returns features, projection, prediction, and logits nodes."""
    node = ad.constant(x)
    if node.data.ndim != 2 or node.shape[1] != params.arch.input_dim:
        raise ContractError(f"forward: input shape {node.shape} vs input_dim {params.arch.input_dim}")

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


def encode(params: NetworkParams, x: Array) -> np.ndarray:
    """``forward(params, x).features.data`` without the graph or the heads.
    Each layer is ``ad.affine``, the forward of ``ad.linear``, then relu in
    place, so the result is bit for bit the same. Hidden layers write into
    ``params``' scratch array for their position (the first rows of it,
    grown when a larger split comes), so consecutive layers never share
    memory; the last layer makes a new array, which the caller may keep
    across later calls. Neither ``x`` nor a parameter is written."""
    a = ad.as_tensor(x)
    if a.ndim != 2 or a.shape[1] != params.arch.input_dim:
        raise ContractError(f"encode: input shape {a.shape} vs input_dim {params.arch.input_dim}")
    n = a.shape[0]
    last = len(params.encoder) - 1
    for i, (w, b) in enumerate(params.encoder):
        buf = params._scratch.get(i)
        if i < last and (buf is None or buf.shape[0] < n):
            buf = params._scratch[i] = np.empty((n, w.data.shape[0]))
        a = ad.affine(a, w.data, b.data, out=buf[:n] if i < last else None)
        np.maximum(a, 0.0, out=a)
    return a


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(
    params: NetworkParams,
    grads: dict[Node, Array],
    velocity: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> np.ndarray:
    """v <- m*v + g + wd*theta; theta <- theta - lr*v; returns the new v.
    A parameter absent from ``grads`` gets an exact-zero gradient (still
    decays); a non-finite gradient raises, naming its parameter, before
    theta is replaced. Neither theta nor ``velocity`` is ever written."""
    named = params.named_parameters()
    g = np.concatenate([grads[p].ravel() if p in grads else np.zeros(p.data.size) for _, p in named])
    if not np.isfinite(g).all():
        bad = next(name for name, p in named if p in grads and not np.isfinite(grads[p]).all())
        raise TrainingDivergedError(f"sgd_step: non-finite gradient for {bad}")
    velocity = momentum * velocity + g + weight_decay * params.theta
    params.set_theta(params.theta - lr * velocity)
    return velocity


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
    """Rebuild a NetworkParams from a snapshot directory. A manifest that is
    not one ``save_params`` could write (a version or widths that are not
    JSON integers among them), or an array file that is not a float64 .npy array of its
    entry's shape, raises ContractError naming the file."""
    snap = Path(snapshot_dir)
    manifest_path = snap / "manifest.json"
    if not manifest_path.exists():
        raise ContractError(f"load_params: no manifest.json under {snap}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        version = manifest.get("format_version")
        supported = type(version) is int and version == SNAPSHOT_VERSION
        if supported:
            widths = {f.name: manifest["arch"][f.name] for f in fields(ArchSpec)}
            hidden = widths.pop("hidden_dims")
            if type(hidden) is not list or any(type(w) is not int for w in (*widths.values(), *hidden)):
                raise TypeError(f"widths must be integers, hidden_dims a list of them: {manifest['arch']}")
            arch = ArchSpec(**widths, hidden_dims=tuple(hidden))
            entries = {entry["name"]: (entry["file"], entry["shape"]) for entry in manifest["params"]}
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        # ValueError covers bad JSON, non-UTF-8 bytes, and widths ArchSpec rejects
        raise ContractError(f"load_params: {manifest_path}: malformed manifest: {exc!r}") from exc
    if not supported:
        raise ContractError(f"load_params: {manifest_path}: unsupported snapshot version {version}")
    params = init_params(arch, seed=0)
    by_name = dict(params.named_parameters())
    if set(entries) != set(by_name):
        raise ContractError(f"load_params: {manifest_path}: parameter names do not match the architecture")
    arrays = []
    for name, node in by_name.items():
        file, shape = entries[name]
        path = snap / file
        if not path.is_file():
            raise ContractError(f"load_params: missing array file {path}")
        try:
            with open(path, "rb") as fh:
                arr = np.lib.format.read_array(fh)
        except ValueError as exc:
            raise ContractError(f"load_params: {path}: not a .npy array: {exc}") from exc
        if arr.dtype != np.float64:
            raise ContractError(f"load_params: {path}: dtype {arr.dtype}, expected float64")
        if list(arr.shape) != shape or arr.shape != node.shape:
            raise ContractError(f"load_params: {path}: shape mismatch for {name}")
        arrays.append(arr.ravel())
    params.set_theta(np.concatenate(arrays))
    return params
