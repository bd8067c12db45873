"""Shared fixtures.

Heavy objects (the synthetic dataset, a trained float model, quantized and
integer models) are built once per session and reused across test modules to
keep the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import generate_linaige
from repro.flow import Preprocessor, build_seed_cnn
from repro.nn import ArrayDataset, TrainConfig, train_model
from repro.quant import (
    PrecisionScheme,
    QATConfig,
    convert_to_integer,
    qat_finetune,
    quantize_model,
)

# A larger example budget for the simulator differential tests, selected in
# CI with ``--hypothesis-profile sim-large``; tier-1 runs keep the default.
settings.register_profile("sim-large", max_examples=500, deadline=None)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but complete 5-session synthetic LINAIGE dataset."""
    return generate_linaige(
        seed=7, samples_per_session={1: 400, 2: 160, 3: 120, 4: 120, 5: 120}
    )


@pytest.fixture(scope="session")
def prepared_data(tiny_dataset):
    """Preprocessed train/test arrays with session 2 held out."""
    test_session = tiny_dataset.session(2)
    train_frames = np.concatenate(
        [s.frames for s in tiny_dataset.sessions if s.session_id != 2]
    )
    train_labels = np.concatenate(
        [s.labels for s in tiny_dataset.sessions if s.session_id != 2]
    )
    pre = Preprocessor.fit(train_frames)
    train_set = ArrayDataset(pre(train_frames), train_labels)
    test_set = ArrayDataset(pre(test_session.frames), test_session.labels)
    return {
        "train": train_set,
        "test": test_set,
        "test_session": test_session,
        "preprocessor": pre,
    }


@pytest.fixture(scope="session")
def trained_small_model(prepared_data):
    """A small trained float CNN from the paper's model family."""
    rng = np.random.default_rng(0)
    model = build_seed_cnn(rng, conv_channels=(6, 7), hidden_features=10)
    train_model(
        model,
        prepared_data["train"],
        config=TrainConfig(epochs=4, batch_size=128),
        rng=rng,
    )
    return model


@pytest.fixture(scope="session")
def quantized_model(trained_small_model, prepared_data):
    """The trained model quantized with the INT 8-4-4-8 mixed scheme."""
    qmodel = quantize_model(
        trained_small_model,
        PrecisionScheme((8, 4, 4, 8)),
        calibration_data=prepared_data["train"].inputs[:200],
    )
    qat_finetune(
        qmodel,
        prepared_data["train"],
        prepared_data["test"],
        QATConfig(epochs=1, batch_size=128),
        rng=np.random.default_rng(1),
    )
    return qmodel


@pytest.fixture(scope="session")
def integer_network(quantized_model):
    return convert_to_integer(quantized_model)
