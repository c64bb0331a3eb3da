"""The ``Strategy`` protocol: federated algorithms as pluggable plugins.

The paper's contribution (FedZKT) is *one algorithm among peers* — its
experiments compare against FedAvg, FedMD, and standalone training.  One
generic :class:`~repro.federated.simulation.Simulation` engine owns the
devices, execution backend, round scheduler, simulated clock, and training
history, and delegates everything algorithm-specific to a
:class:`Strategy` object — the same shape Flower's ``Strategy``
abstraction uses over its generic simulation engine.

Hook order for one scheduler round (``S`` = strategy hook, ``E`` = engine)::

    run()                                  run_round()
      E ensure_backend                       S on_round_start(round_index)
      S on_run_start(total_rounds)             E/S sample(round_index)
      loop: run_round(...)  ────────────▶      S device_tasks(ids, round)     (dispatch)
                                               S process_result(result, meta) (collect, per upload)
                                               S aggregate(round, ids, meta)
                                                 └─ S server_update(...)      (overridable core)
                                               S broadcast(ids)
                                               E evaluate_round               (evaluate)
                                                 ├─ S evaluate_global(test)
                                                 └─ S round_metrics()
                                             S on_round_end(record)

The scheduler decides *when* each phase runs on the simulated clock
(synchronous lockstep, deadline-bounded, or async buffered); the strategy
decides *what* each phase does.  Capability declarations
(:attr:`Strategy.supports_schedulers`, :attr:`Strategy.supports_server_shards`,
:attr:`Strategy.uses_public_dataset`) are validated in one place —
:func:`repro.federated.strategies.validate_strategy` — instead of ad-hoc
checks scattered through the CLI and builders.

Strategies register themselves in the
:mod:`repro.federated.strategies` registry (``register_strategy``) so the
CLI, the experiment harness, and config validation can enumerate and look
them up by name.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from .server import FederatedServer, UploadMeta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..datasets.base import ImageDataset
    from .history import RoundRecord
    from .simulation import Simulation

__all__ = ["Strategy", "ParameterServerStrategy"]


class Strategy:
    """Base class for federated algorithm strategies.

    A strategy is bound to exactly one
    :class:`~repro.federated.simulation.Simulation` (via :meth:`bind`) and
    implements the algorithm-specific round phases the engine delegates to.
    Subclasses override the phase hooks they need; the defaults describe an
    algorithm that trains devices locally and exchanges nothing.

    Class-level capability declarations (consumed by
    :func:`repro.federated.strategies.validate_strategy` and the CLI):

    ``supports_schedulers``
        Round-scheduler kinds this strategy's round structure tolerates.
        Strategies that need every active upload before aggregation declare
        ``("sync",)``; strategies whose aggregation tolerates partial or
        reordered uploads include ``"deadline"`` / ``"async"``.
    ``supports_server_shards``
        Whether the strategy has a server-side computation that can shard
        through the execution backend (``ServerConfig.server_shards``).
    ``uses_public_dataset``
        Whether the strategy requires a shared public dataset (FedMD).
    """

    #: Registry name of the strategy (also recorded as the history's
    #: ``algorithm``); instances may override the class attribute.
    name = "base"

    supports_schedulers: Sequence[str] = ("sync", "deadline", "async")
    supports_server_shards = False
    uses_public_dataset = False

    #: The algorithm's server, if it has one (bound to the execution
    #: backend by ``Simulation.ensure_backend``).
    server: Optional[FederatedServer] = None

    #: The shared public dataset, if the algorithm uses one (shipped to
    #: workers inside the :class:`~repro.federated.backend.WorkerContext`).
    public_dataset = None

    def __init__(self) -> None:
        self.simulation: Optional["Simulation"] = None

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(self, simulation: "Simulation") -> None:
        """Attach the strategy to its engine (called by ``Simulation``)."""
        if self.simulation is not None and self.simulation is not simulation:
            raise RuntimeError(
                f"strategy {self.name!r} is already bound to a simulation; "
                "construct one strategy instance per Simulation")
        self.simulation = simulation

    @property
    def supports_reordering(self) -> bool:
        """Whether any reordering scheduler (deadline/async) is supported."""
        return any(kind in self.supports_schedulers for kind in ("deadline", "async"))

    # ------------------------------------------------------------------ #
    # Lifecycle hooks
    # ------------------------------------------------------------------ #
    def on_run_start(self, total_rounds: int) -> None:
        """Called once per :meth:`Simulation.run`, before the first round
        (FedMD performs its transfer-learning warm-up here)."""

    def on_round_start(self, round_index: int) -> None:
        """Called by the scheduler before each round's phases."""

    def on_round_end(self, record: "RoundRecord") -> None:
        """Called by the scheduler after each round's record is appended."""

    # ------------------------------------------------------------------ #
    # Round phases (delegated by the engine, driven by the scheduler)
    # ------------------------------------------------------------------ #
    def sample(self, round_index: int) -> List[int]:
        """The candidate devices for this round (default: the sampler)."""
        simulation = self.simulation
        return simulation.sampler.sample(round_index, len(simulation.devices))

    def device_tasks(self, device_ids: Sequence[int], round_index: int) -> List:
        """Package the round's device-side work as backend tasks.

        The default dispatches plain local training (Algorithm 2) for each
        device, publishing parameter payloads through the backend's
        content-addressed state store.
        """
        simulation = self.simulation
        store = simulation.state_store
        return [simulation.devices[device_id].local_train_task(
                    simulation.config.local_epochs, store=store)
                for device_id in device_ids]

    def process_result(self, result, meta: UploadMeta) -> float:
        """Absorb one completed task (collect phase); return the local loss.

        The default absorbs the training result into the device and uploads
        nothing — algorithms that exchange payloads override this.
        """
        device = self.simulation.devices[result.device_id]
        return device.absorb_training_result(result).mean_loss

    def aggregate(self, round_index: int, device_ids: Sequence[int],
                  upload_meta: Dict[int, UploadMeta]) -> None:
        """The server-side computation over this round's uploads (no-op by
        default — algorithms without central state skip it)."""

    def broadcast(self, device_ids: Optional[Sequence[int]] = None) -> None:
        """Deliver server payloads (``None`` = every device; no-op default)."""

    def evaluate_global(self, dataset: "ImageDataset") -> Optional[float]:
        """Global-model accuracy, or ``None`` for algorithms without one."""
        return None

    def round_metrics(self) -> Dict[str, float]:
        """Algorithm-specific metrics recorded on the round's record."""
        return {}

    def verbose_line(self, record: "RoundRecord", total_rounds: int) -> str:
        """The progress line printed in verbose mode."""
        global_part = (
            f"global={record.global_accuracy:.3f} " if record.global_accuracy is not None else ""
        )
        return (f"[{self.name}] round {record.round_index}/{total_rounds} "
                f"{global_part}mean_device={record.mean_device_accuracy:.3f}")


class ParameterServerStrategy(Strategy):
    """Generic strategy for parameter-upload algorithms (FedZKT, FedAvg).

    Devices train locally and upload their parameters; a
    :class:`~repro.federated.server.FederatedServer` aggregates them
    (:meth:`server_update`) and prepares per-device payloads that the
    broadcast phase delivers.  Algorithm subclasses normally only declare
    capabilities and a constructor.

    Parameters
    ----------
    server:
        The algorithm-specific server.
    name:
        Optional display/registry name override (defaults to the server's
        ``name``, preserving e.g. the ``fedprox`` labelling).
    """

    def __init__(self, server: FederatedServer, name: Optional[str] = None) -> None:
        super().__init__()
        if server is None:
            raise ValueError("ParameterServerStrategy requires a server")
        self.server = server
        self.name = name if name is not None else server.name

    def process_result(self, result, meta: UploadMeta) -> float:
        """Absorb one training result and upload the parameters."""
        device = self.simulation.devices[result.device_id]
        report = device.absorb_training_result(result)
        self.server.collect(device.device_id, device.send_parameters(), meta=meta)
        return report.mean_loss

    def aggregate(self, round_index: int, device_ids: Sequence[int],
                  upload_meta: Dict[int, UploadMeta]) -> None:
        self.server_update(round_index, device_ids, upload_meta)

    def server_update(self, round_index: int, device_ids: Sequence[int],
                      upload_meta: Dict[int, UploadMeta]) -> None:
        """The central computation (Algorithm 3 for FedZKT; averaging for
        FedAvg) — the overridable core of the aggregate phase."""
        self.server.aggregate(round_index, list(device_ids), upload_meta=upload_meta)

    def broadcast(self, device_ids: Optional[Sequence[int]] = None) -> None:
        """Deliver per-device payloads (Algorithm 1, lines 11–13)."""
        devices = self.simulation.devices
        targets = (devices if device_ids is None
                   else [devices[device_id] for device_id in device_ids])
        for device in targets:
            payload = self.server.payload_for(device.device_id)
            if payload is not None:
                device.receive_parameters(payload)
        self.server.finish_round()

    def evaluate_global(self, dataset: "ImageDataset") -> Optional[float]:
        return self.server.evaluate_global(dataset)

    def round_metrics(self) -> Dict[str, float]:
        return dict(self.server.last_metrics)
