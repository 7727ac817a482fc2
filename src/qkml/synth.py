"""Seeded 2-d synthetic datasets for benchmarks and tests.

Every generator is a pure function of (n, noise, seed) built on
``np.random.default_rng``, so repeated calls reproduce the same rows.
The two-class ones take their class sizes and labels from ``_two_classes``.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset

_NAMES_2D = ("x0", "x1")


def _two_classes(n: int):
    """Class sizes n // 2 and n - n // 2 and labels, class 0 first; n >= 2."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    n0 = n // 2
    return n0, n - n0, np.repeat(np.array([0, 1], dtype=np.int64), [n0, n - n0])


def make_moons(n: int, noise: float = 0.2, seed: int = 0) -> Dataset:
    """Two interleaving half-circles with isotropic gaussian noise."""
    n0, n1, labels = _two_classes(n)
    rng = np.random.default_rng(seed)
    t0 = np.linspace(0.0, math.pi, n0)
    t1 = np.linspace(0.0, math.pi, n1)
    pts = np.vstack(
        [
            np.column_stack([np.cos(t0), np.sin(t0)]),
            np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)]),
        ]
    )
    pts += rng.normal(scale=noise, size=pts.shape)
    return Dataset(pts, labels, _NAMES_2D)


def make_rings(n: int, noise: float = 0.08, seed: int = 0) -> Dataset:
    """Two concentric circles (class 0 inner, radius 0.5; class 1 outer,
    radius 1.0) with radial gaussian noise."""
    n0, n1, labels = _two_classes(n)
    rng = np.random.default_rng(seed)
    radii = np.concatenate([np.full(n0, 0.5), np.full(n1, 1.0)])
    radii = radii + rng.normal(scale=noise, size=n)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return Dataset(pts, labels, _NAMES_2D)


XOR_POINTS = np.array(
    [[0.0, 0.0], [0.0, math.pi], [math.pi, 0.0], [math.pi, math.pi]]
)
XOR_LABELS = np.array([0, 1, 1, 0], dtype=np.int64)


def make_xor(n: int = 4, noise: float = 0.0, seed: int = 0) -> Dataset:
    """Points around the four XOR corners (0/pi grid), label = parity.

    With the defaults this is exactly the 4-point corner set.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    rng = np.random.default_rng(seed)
    reps = [n // 4 + (1 if r < n % 4 else 0) for r in range(4)]
    pts = np.repeat(XOR_POINTS, reps, axis=0)
    labels = np.repeat(XOR_LABELS, reps)
    if noise > 0.0:
        pts = pts + rng.normal(scale=noise, size=pts.shape)
    return Dataset(pts, labels, _NAMES_2D)


def make_blobs(n: int, noise: float = 0.5, seed: int = 0) -> Dataset:
    """Two gaussian clusters centred at (-1.5, -1.5) and (1.5, 1.5)."""
    n0, n1, labels = _two_classes(n)
    rng = np.random.default_rng(seed)
    pts = np.vstack(
        [
            rng.normal(loc=-1.5, scale=noise, size=(n0, 2)),
            rng.normal(loc=1.5, scale=noise, size=(n1, 2)),
        ]
    )
    return Dataset(pts, labels, _NAMES_2D)


_GENERATORS = {
    "moons": make_moons,
    "rings": make_rings,
    "xor": make_xor,
    "blobs": make_blobs,
}


def generator_names():
    """Names accepted by make_synthetic, sorted."""
    return sorted(_GENERATORS)


def make_synthetic(name: str, n: int, noise: float = None, seed: int = 0) -> Dataset:
    """Dispatch by generator name; ``noise=None`` takes each generator's
    default."""
    if name not in _GENERATORS:
        raise ValueError(
            f"unknown synthetic dataset {name!r}; choose from {sorted(_GENERATORS)}"
        )
    gen = _GENERATORS[name]
    if noise is None:
        return gen(n, seed=seed)
    return gen(n, noise=noise, seed=seed)
