"""App datasets are built on first use, byte-identical to eager ones.

The oracle (``tests/apps/dataset_oracle.py``) keeps the construction
every app used to run in ``__init__``; the lazy attributes must equal
it at every (scale, seed), and reading a study back from the
StudyCache -- which only needs the app's recipe -- must run no dataset
generator at all.
"""

import numpy as np
import pytest

from repro.apps import create_app, datasets
from repro.apps.registry import _EXTRA, APP_NAMES
from repro.orchestrator import StudyCache, StudySpec
from tests.apps import dataset_oracle

ALL_APPS = tuple(APP_NAMES) + tuple(_EXTRA)
PAIRS = ((0.05, 7), (0.2, 11), (1.0, 3))


def assert_same(lazy, eager):
    if isinstance(eager, tuple):
        assert isinstance(lazy, tuple) and len(lazy) == len(eager)
        for left, right in zip(lazy, eager):
            assert_same(left, right)
    elif isinstance(eager, np.ndarray):
        assert lazy.dtype == eager.dtype
        assert lazy.shape == eager.shape
        assert lazy.tobytes() == eager.tobytes()
    else:
        assert lazy == eager


def refuse_generators(monkeypatch):
    """Make every dataset generator raise while *monkeypatch* is active."""

    def refuse(*args, **kwargs):
        raise AssertionError("a dataset generator ran")

    for name in dataset_oracle.GENERATORS:
        monkeypatch.setattr(datasets, name, refuse)


def test_oracle_covers_every_registered_app():
    assert set(dataset_oracle.EAGER) == set(ALL_APPS)


@pytest.mark.parametrize("scale,seed", PAIRS)
@pytest.mark.parametrize("name", ALL_APPS)
def test_lazy_dataset_equals_eager_oracle(name, scale, seed):
    app = create_app(name, scale=scale, seed=seed)
    expected = dataset_oracle.EAGER[name](app)
    for attribute, value in expected.items():
        assert attribute not in vars(app)  # not built yet
        assert_same(getattr(app, attribute), value)
        # built once: a second read returns the same object
        assert getattr(app, attribute) is getattr(app, attribute)


@pytest.mark.parametrize("name", ALL_APPS)
def test_create_app_generates_nothing(name, monkeypatch):
    refuse_generators(monkeypatch)
    app = create_app(name, scale=0.05, seed=7)
    assert app.profile.name == name


def test_study_cache_get_generates_nothing(tmp_path, monkeypatch):
    spec = StudySpec(app="kmeans", scale=0.05, seed=9, num_workers=16)
    study = spec.run()
    cache = StudyCache(tmp_path / "cache")
    cache.put(spec, study)
    with monkeypatch.context() as patch:
        refuse_generators(patch)
        loaded = cache.get(spec)
    assert loaded is not None
    assert loaded.label == study.label
    # The dataset is still there on demand, equal to the one the study ran.
    assert_same(loaded.app._dataset, study.app._dataset)
