"""Eager reference datasets: what each app built in ``__init__``.

Apps now build their datasets on first use.  These functions keep the
eager construction verbatim -- same generators, same derived seeds,
same order -- as the oracle ``tests/apps/test_lazy_datasets.py``
compares the lazy attributes against, byte for byte.  Each returns
``{attribute: value}`` for the attributes the app exposes.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.apps import datasets
from repro.apps.base import BenchmarkApp
from repro.apps.string_match import SEARCH_KEYS


def _wordcount(app: BenchmarkApp) -> Dict:
    words = datasets.zipf_text(
        app.num_words,
        vocabulary_size=5000,
        num_segments=40,
        seed=app.component_seed("text"),
    )
    return {"_words": words}


def _string_match(app: BenchmarkApp) -> Dict:
    words = datasets.zipf_text(
        app.num_words, vocabulary_size=4000, seed=app.component_seed("text")
    )
    for position in range(0, len(words), app.KEY_PERIOD):
        words[position] = SEARCH_KEYS[
            (position // app.KEY_PERIOD) % len(SEARCH_KEYS)
        ]
    return {"_words": words}


def _histogram(app: BenchmarkApp) -> Dict:
    pixels = datasets.pixel_image(
        app.num_pixels, seed=app.component_seed("image")
    )
    return {"_pixels": pixels}


def _kmeans(app: BenchmarkApp) -> Dict:
    points, labels = datasets.clustered_points(
        app.num_points,
        app.dimension,
        app.NUM_CLUSTERS,
        seed=app.component_seed("points"),
    )
    rng = np.random.default_rng(app.component_seed("spread"))
    for cluster in range(app.NUM_CLUSTERS):
        mask = labels == cluster
        center = points[mask].mean(axis=0)
        factor = rng.uniform(0.3, 4.0)
        points[mask] = center + (points[mask] - center) * factor
    rng = np.random.default_rng(app.component_seed("init"))
    centroids = np.empty((app.NUM_CLUSTERS, app.dimension))
    for cluster in range(app.NUM_CLUSTERS):
        members = np.nonzero(labels == cluster)[0]
        sample_size = max(5, len(members) // 4)
        sample = rng.choice(
            members, size=min(sample_size, len(members)), replace=False
        )
        centroids[cluster] = points[sample].mean(axis=0)
    centroids = centroids + rng.normal(
        0.0, 1e-3, size=(app.NUM_CLUSTERS, app.dimension)
    )
    return {"_dataset": (points, labels, centroids)}


def _linear_regression(app: BenchmarkApp) -> Dict:
    samples = datasets.linear_samples(
        app.num_samples,
        slope=app.TRUE_SLOPE,
        intercept=app.TRUE_INTERCEPT,
        seed=app.component_seed("samples"),
    )
    return {"_samples": samples}


def _matrix_multiply(app: BenchmarkApp) -> Dict:
    a = datasets.dense_matrix(
        app.dimension, app.dimension, seed=app.component_seed("a")
    )
    b = datasets.dense_matrix(
        app.dimension, app.dimension, seed=app.component_seed("b")
    )
    return {"_a": a, "_b": b}


def _pca(app: BenchmarkApp) -> Dict:
    matrix = datasets.correlated_matrix(
        app.dimension, app.dimension, seed=app.component_seed("matrix")
    )
    return {"_matrix": matrix}


#: Registered app name -> eager dataset builder.
EAGER: Dict[str, Callable[[BenchmarkApp], Dict]] = {
    "wordcount": _wordcount,
    "string_match": _string_match,
    "histogram": _histogram,
    "kmeans": _kmeans,
    "linear_regression": _linear_regression,
    "matrix_multiply": _matrix_multiply,
    "pca": _pca,
}


#: Every generator an app dataset is drawn from.
GENERATORS = (
    "zipf_text",
    "pixel_image",
    "clustered_points",
    "linear_samples",
    "dense_matrix",
    "correlated_matrix",
)
