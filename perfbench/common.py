"""Shared pieces of the repository benchmark: paths, workload inputs built
from a seed, the host-process line protocol, quantiles and process-tree
peak-RSS accounting.

Every workload derives all of its inputs from ``--seed``: the LINAIGE
recording (``generate_linaige``), the model initialisation and, for the
flow, ``FlowConfig.seed``.  The program under test only ever sees those
generated inputs.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
#: working directory of the runs (trace files); listed in .gitignore
RUN_DIR = ROOT / ".perfbench"

# ---------------------------------------------------------------------- #
# Serve workloads: the Table-I-class CNN of benchmarks/perf_serve.py FULL
# (conv (12, 16), hidden 24, INT 8-4-4-8) served to a sensor fleet.
# ---------------------------------------------------------------------- #
SERVE_SCALE = 0.05
SERVE_CONV = (12, 16)
SERVE_HIDDEN = 24
SERVE_SCHEME = (8, 4, 4, 8)
HELD_OUT_SESSION = 2
CHUNK = 8  # frames per push
WINDOW = 5  # majority-voting FIFO length


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    target: str
    workers: int  # ServeConfig.workers
    sessions: int  # open-loop sensor sessions at the sensor frame rate


SERVE_WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload("serve-golden", "int-golden", workers=0, sessions=128),
        ServeWorkload("serve-maupiti-pool", "maupiti", workers=1, sessions=16),
    )
}
#: A run serves its load in this many segments, each on a freshly set-up
#: server (and pool worker).  Which CPU a process lands on moves its speed
#: by up to a third on a shared 2-CPU host; several processes per run even
#: that out, and each set-up is one ``setup_s`` sample.
SEGMENTS = 5

SENDER_THREADS = 2  # one keep-alive ServeClient connection each
OPEN_LOOP_SHARE = 0.5  # of --seconds; the closed-loop phase gets the rest


def frame_rate_hz() -> float:
    from repro.hw.sensor import TmosArrayConfig

    return TmosArrayConfig().frame_rate_hz


def build_serve_inputs(seed: int):
    """``(ModelBundle, held-out frames)`` of the serve workloads for ``seed``.

    The model is the untrained Table-I-class CNN quantized to INT 8-4-4-8
    with calibration on the training sessions; the frames are held-out
    session 2, preprocessed with the training-fitted ``Preprocessor``.
    """
    import numpy as np

    from repro.datasets import generate_linaige
    from repro.engine import ModelBundle
    from repro.flow import Preprocessor, build_seed_cnn
    from repro.quant import PrecisionScheme, quantize_model

    dataset = generate_linaige(seed=seed, scale=SERVE_SCALE)
    train = np.concatenate(
        [s.frames for s in dataset.sessions if s.session_id != HELD_OUT_SESSION]
    )
    pre = Preprocessor.fit(train)
    model = build_seed_cnn(
        np.random.default_rng(seed),
        conv_channels=SERVE_CONV,
        hidden_features=SERVE_HIDDEN,
    )
    qmodel = quantize_model(
        model, PrecisionScheme(SERVE_SCHEME), calibration_data=pre(train)[:256]
    )
    held_out = pre(dataset.session(HELD_OUT_SESSION).frames)
    return ModelBundle(qmodel, label=f"perfbench seed {seed}"), held_out


def session_offsets(seed: int, sessions: int, pool_size: int) -> List[int]:
    """Start frame of every sensor session inside the held-out recording."""
    import numpy as np

    rng = np.random.default_rng([seed, sessions])
    return [int(x) for x in rng.integers(0, pool_size, size=sessions)]


def chunk_indices(offset: int, k: int, pool_size: int) -> List[int]:
    """Frame indices of the ``k``-th chunk a session pushes (wrapping)."""
    start = offset + k * CHUNK
    return [(start + i) % pool_size for i in range(CHUNK)]


# ---------------------------------------------------------------------- #
# Flow workload: the paper's flow, PIT -> mixed-precision QAT -> majority
# voting -> Table-I deploy, on the process executor.
# ---------------------------------------------------------------------- #
FLOW_SCALE = 0.08
FLOW_SEED_CHANNELS = (16, 16)
FLOW_SEED_HIDDEN = 16
# One pool worker: with two, the workers' OpenBLAS threads oversubscribe the
# 2-CPU host and flow wall time swings between runs of one seed too far to
# gate on (see README.md).
FLOW_MAX_WORKERS = 1


def flow_seeds(seed: int) -> List[int]:
    """Seeds of the flows one run makes.  Each seed searches its own
    architectures, and the QAT of bigger ones takes longer, so three seeds
    spread that over the run; ``seed`` repeats to check the flow is
    deterministic."""
    return [seed, seed + 1, seed + 2, seed]


def flow_config(seed: int):
    from repro.flow import FlowConfig
    from repro.nas.search import SearchConfig
    from repro.quant.mixed import QATConfig

    return FlowConfig(
        lambdas=(1e-6, 1e-5, 1e-4, 5e-4),
        search=SearchConfig(
            warmup_epochs=1, search_epochs=4, finetune_epochs=4, batch_size=128
        ),
        qat=QATConfig(epochs=2, batch_size=128),
        max_quantized_architectures=2,
        deploy_targets=("stm32", "ibex", "maupiti"),
        deploy_frames=8,
        executor="process",
        max_workers=FLOW_MAX_WORKERS,
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# Host processes: one JSON object per "@@ "-prefixed stdout line, commands
# as plain stdin lines.
# ---------------------------------------------------------------------- #
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC_DIR), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def send(kind: str, **payload) -> None:
    sys.stdout.write("@@ " + json.dumps({"kind": kind, **payload}) + "\n")
    sys.stdout.flush()


def receive(stream) -> dict:
    """Next protocol message from a host's stdout (other lines are echoed
    to stderr); raises ``EOFError`` when the host exits first."""
    for line in stream:
        if line.startswith("@@ "):
            return json.loads(line[3:])
        sys.stderr.write(line)
    raise EOFError("host process exited without answering")


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for ``proc``; kill it when it does not end within ``timeout``."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the serving layer's own definition)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


def median(values: Sequence[float]) -> float:
    import statistics

    return float(statistics.median(values))


def completed_in(events: Sequence[tuple], start: float, end: float) -> float:
    """Sum of the amounts of ``(time, amount)`` events inside ``[start, end)``."""
    return sum(amount for at, amount in events if start <= at < end)


# ---------------------------------------------------------------------- #
# Peak RSS of a process tree, from /proc
# ---------------------------------------------------------------------- #
def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return out


def _vm_hwm_kb(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class PeakRss:
    """Summed peak RSS (``VmHWM``) of a process and all its descendants.

    ``VmHWM`` only grows, so the last sample taken while a process is alive
    is its peak; processes that exit between samples keep the value of
    their last sample.
    """

    def __init__(self) -> None:
        self._peak_kb: Dict[int, int] = {}

    def sample(self, root: int) -> None:
        stack = [root]
        while stack:
            pid = stack.pop()
            hwm = _vm_hwm_kb(pid)
            if hwm is not None:
                self._peak_kb[pid] = max(hwm, self._peak_kb.get(pid, 0))
            stack.extend(_children(pid))

    @property
    def pids(self) -> List[int]:
        return sorted(self._peak_kb)

    def total_mb(self) -> float:
        return sum(self._peak_kb.values()) / 1024.0


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def shm_exists(name: str) -> bool:
    return os.path.exists("/dev/shm/" + name.lstrip("/"))


# ---------------------------------------------------------------------- #
# Host description (printed with every run)
# ---------------------------------------------------------------------- #
def describe_host() -> dict:
    import numpy as np

    from repro.serve import available_cpus

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "available_cpus": available_cpus(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": git_sha(),
    }


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def flatten(chunks: Iterable[Iterable]) -> list:
    return [x for chunk in chunks for x in chunk]
