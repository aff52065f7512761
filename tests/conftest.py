import threading
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from fedvarp_sim import core
from fedvarp_sim.config import AlgoConfig, RunConfig
from fedvarp_sim.core import HyperConfig
from fedvarp_sim.objectives import Federation, FederationConfig
from fedvarp_sim.rng import substream

pytest_plugins = ["pytester"]

# Reporting a falsifying example makes hypothesis import libcst, which
# warns on import. A command-line -W error overrides the ini filter for
# that warning, and the warning would then crash the session, so libcst
# is imported here with only that warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


def make_federation(mus, eigs, sigma=0.0):
    """Helper: one shared-Hessian quadratic client per row of mus."""
    return Federation(
        eigs=np.asarray(eigs, dtype=np.float64),
        mus=np.asarray(mus, dtype=np.float64),
        noise_sigma=sigma,
    )


@contextmanager
def forced_split(workers=2):
    """Every core.run_slabs call with at least two rows runs min(rows, workers) slabs in threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "SPLIT_MIN_WORK", 0)
        mp.setattr(core, "WORKERS", workers)
        yield


def substream_keys(seed, *path, ids):
    """The Philox key of substream(seed, *path, i) for each i in ids, shape (len(ids), 2) uint64."""
    keys = [substream(seed, *path, int(i)).bit_generator.state["state"]["key"] for i in ids]
    return np.array(keys, dtype=np.uint64).reshape(len(keys), 2)


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves more live threads than it started with."""
    before = threading.active_count()
    yield
    left = threading.enumerate()
    assert len(left) <= before, f"threads still running after the test: {left}"


@pytest.fixture
def small_config(tmp_path):
    """A fast, fully valid run configuration writing into tmp_path."""

    def build(**kwargs):
        fed = FederationConfig(
            N=kwargs.pop("N", 8),
            d=kwargs.pop("d", 3),
            K_true=kwargs.pop("K_true", 4),
            cluster_center_spread=kwargs.pop("cluster_center_spread", 1.0),
            within_cluster_spread=kwargs.pop("within_cluster_spread", 0.1),
            noise_sigma=kwargs.pop("noise_sigma", 0.0),
            hessian_eig_min=kwargs.pop("hessian_eig_min", 0.5),
            hessian_eig_max=kwargs.pop("hessian_eig_max", 1.0),
            seed=kwargs.pop("federation_seed", 11),
        )
        hyper = HyperConfig(
            eta_c=kwargs.pop("eta_c", 0.05),
            eta_s=kwargs.pop("eta_s", 1.0),
            tau=kwargs.pop("tau", 2),
            T=kwargs.pop("T", 30),
            M=kwargs.pop("M", 3),
        )
        algo = AlgoConfig(
            name=kwargs.pop("algo", "fedavg"),
            K=kwargs.pop("K", None),
            mifa_mode=kwargs.pop("mifa_mode", None),
        )
        cfg = RunConfig(
            federation=fed,
            hyper=hyper,
            algo=algo,
            log_every=kwargs.pop("log_every", 1),
            output_dir=str(kwargs.pop("output_dir", tmp_path / "run")),
            seed=kwargs.pop("seed", 4242),
        )
        assert not kwargs, f"unused config test args: {kwargs}"
        return cfg

    return build
