"""The GDR engine: the full guided-repair loop (paper Procedure 1).

Wires every substrate together and exposes the experiment variants of
§5 through :class:`GDRConfig` presets:

=====================  ========  ==========  ========  ===============
Variant                ranking   learning    grouping  per-group quota
=====================  ========  ==========  ========  ===============
``GDRConfig.gdr()``    VOI       active      yes       d_i = E(1−g/gmax)
``.s_learning()``      VOI       passive     yes       d_i = E(1−g/gmax)
``.active_learning()`` —         active      no        whole pool
``.no_learning()``     VOI       none        yes       whole group
=====================  ========  ==========  ========  ===============

(The *Automatic-Heuristic* baseline lives in
:func:`repro.repair.heuristic.batch_repair` — it needs no engine.)

Every variant runs one engine path. Each iteration refreshes the
suggestion pool in O(delta)
(:meth:`~repro.repair.consistency.ConsistencyManager.refresh_suggestions`),
picks the top group off the event-maintained
:class:`~repro.core.grouping.GroupIndex` (through the stamped
:class:`~repro.core.voi.GroupBenefitCache` under VOI ranking), and the
learner decides through wave-batched committee passes against a
snapshot view (:func:`~repro.core.session.decide_batched`). The golden
trajectories under ``tests/golden/`` pin the results, and tier-1
lockstep tests check every incrementally maintained structure against
its rebuild reference. ``refresh_suggestions_full`` serves the first
refresh.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.constraints.repository import RuleSet
from repro.constraints.violations import ViolationDetector
from repro.core.effort import EffortPolicy, FeedbackBudget
from repro.core.grouping import GroupIndex, UpdateGroup
from repro.core.learner import FeedbackLearner
from repro.core.metrics import RepairReport, TrajectoryPoint, evaluate_repair
from repro.core.quality import QualityEvaluator, quality_improvement
from repro.core.ranking import GreedyRanking, RandomRanking, RankingStrategy, VOIRanking
from repro.core.session import InteractiveSession, decide_batched, delegation_allowed
from repro.core.user import UserOracle
from repro.core.voi import GroupBenefitCache, VOIEstimator
from repro.db.database import Database
from repro.db.journal import FeedbackJournal, ReplayOracle
from repro.db.schema import Schema
from repro.errors import ConfigError, SchemaError
from repro.testing.faults import fault_hit
from repro.repair.candidate import CandidateUpdate
from repro.repair.consistency import ConsistencyManager
from repro.repair.generator import UpdateGenerator
from repro.repair.similarity import SimilarityCache
from repro.repair.state import RepairState

__all__ = ["GDRConfig", "GDREngine", "GDRResult"]

_RANKINGS = ("voi", "greedy", "random")
_LEARNINGS = ("active", "passive", "none")


@dataclass(slots=True)
class GDRConfig:
    """Tunable knobs of the GDR engine.

    Attributes
    ----------
    ranking:
        Group ranking strategy: ``"voi"``, ``"greedy"`` or ``"random"``.
    learning:
        ``"active"`` (uncertainty ordering + delegation), ``"passive"``
        (random ordering + delegation) or ``"none"``.
    grouping:
        When False all updates form one pool (Active-Learning variant).
    batch_size:
        ``n_s`` labels between learner retrains.
    min_labels:
        Per-group quota floor for the benefit formula.
    use_benefit_quota:
        Apply ``d_i = E(1 − g/g_max)``; otherwise label whole groups
        (bounded by the global budget).
    n_estimators / max_depth / min_examples:
        Committee hyper-parameters of the feedback learner.
    seed:
        Master seed for every stochastic component.
    max_iterations:
        Safety cap on interactive iterations.
    voi_cache_capacity:
        Entry bound for the estimator's probe-key table (cleared
        before an overflowing insert); the default comfortably holds
        million-tuple instances while keeping memory bounded. The
        benefit cache's stored p̃ vectors need no bound: they hold one
        value per live suggestion.
    sim_cache_capacity:
        Entry bound for the engine-owned Eq. 7 similarity cache (the
        code-space pair memo shared by the generator and the learner's
        feature encoder). The cache replaces the old module-global
        ``lru_cache``, which leaked entries across engines and datasets
        in one process; hit/miss counters are exposed through
        ``GDREngine.sim_cache.stats``.
    journal_path / journal_fsync:
        When *journal_path* is set, every feedback decision and
        database write is appended to a write-ahead
        :class:`~repro.db.journal.FeedbackJournal` before application;
        *journal_fsync* additionally fsyncs each record.
    checkpoint_path / checkpoint_every:
        When *checkpoint_path* is set, the run auto-serialises its full
        session state there every *checkpoint_every* interactive
        iterations and once at drain start;
        :meth:`GDREngine.restore` + :meth:`GDREngine.resume` continue a
        killed session from the latest checkpoint plus the journal
        tail.
    """

    ranking: str = "voi"
    learning: str = "active"
    grouping: bool = True
    batch_size: int = 10
    min_labels: int = 2
    use_benefit_quota: bool = True
    n_estimators: int = 10
    max_depth: int | None = 12
    # A committee trained on a handful of examples can be confidently
    # wrong; requiring 10 labelled examples per attribute before the
    # learner may decide prevents small-budget vandalism.
    min_examples: int = 10
    # 0.5 admits an 8-of-10 committee majority (vote entropy ≈ 0.46)
    # and rejects 7-of-10 (≈ 0.56) for the default 10-tree committee.
    max_decision_uncertainty: float = 0.5
    # p̃ prior before the learner is trained: "score" uses the update
    # evaluation score s (the paper's choice); "uniform" uses 0.5 and
    # exists for the ablation benches.
    voi_prior: str = "score"
    seed: int = 0
    max_iterations: int = 100_000
    voi_cache_capacity: int = 1 << 20
    sim_cache_capacity: int = 1 << 20
    journal_path: str | None = None
    journal_fsync: bool = False
    checkpoint_path: str | None = None
    checkpoint_every: int = 25

    def __post_init__(self) -> None:
        if self.ranking not in _RANKINGS:
            raise ConfigError(f"ranking must be one of {_RANKINGS}, got {self.ranking!r}")
        if self.learning not in _LEARNINGS:
            raise ConfigError(f"learning must be one of {_LEARNINGS}, got {self.learning!r}")
        if self.voi_prior not in ("score", "uniform"):
            raise ConfigError(f"voi_prior must be 'score' or 'uniform', got {self.voi_prior!r}")
        if self.voi_cache_capacity < 1:
            raise ConfigError(
                f"voi_cache_capacity must be positive, got {self.voi_cache_capacity!r}"
            )
        if self.sim_cache_capacity < 1:
            raise ConfigError(
                f"sim_cache_capacity must be positive, got {self.sim_cache_capacity!r}"
            )
        if self.journal_path is not None and not str(self.journal_path):
            raise ConfigError("journal_path must be None or a non-empty path")
        if not isinstance(self.journal_fsync, bool):
            raise ConfigError(f"journal_fsync must be a bool, got {self.journal_fsync!r}")
        if self.checkpoint_path is not None and not str(self.checkpoint_path):
            raise ConfigError("checkpoint_path must be None or a non-empty path")
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def gdr(cls, **overrides) -> "GDRConfig":
        """The full proposed approach (VOI + active learning)."""
        return cls(**{"ranking": "voi", "learning": "active", **overrides})

    @classmethod
    def s_learning(cls, **overrides) -> "GDRConfig":
        """GDR-S-Learning: VOI ranking, passive (random-order) learning."""
        return cls(**{"ranking": "voi", "learning": "passive", **overrides})

    @classmethod
    def active_learning(cls, **overrides) -> "GDRConfig":
        """Plain active learning: no grouping, no VOI, no quota."""
        return cls(
            **{
                "ranking": "random",
                "learning": "active",
                "grouping": False,
                "use_benefit_quota": False,
                **overrides,
            }
        )

    @classmethod
    def no_learning(cls, **overrides) -> "GDRConfig":
        """GDR-NoLearning: VOI ranking, user verifies everything."""
        return cls(**{"ranking": "voi", "learning": "none", "use_benefit_quota": False, **overrides})


@dataclass(slots=True)
class GDRResult:
    """Outcome of one engine run.

    Attributes
    ----------
    feedback_used / learner_decisions / iterations:
        Effort counters.
    initial_loss / final_loss:
        Eq. 3 loss before and after (against the ground truth when an
        evaluator is available, else the violation-based proxy).
    trajectory:
        Loss samples after every user label and learner decision.
    initial_dirty / remaining_dirty:
        Dirty-tuple counts before and after.
    report:
        Cell-level precision/recall (only when ground truth is known).
    """

    feedback_used: int = 0
    learner_decisions: int = 0
    iterations: int = 0
    initial_loss: float = 0.0
    final_loss: float = 0.0
    trajectory: list[TrajectoryPoint] = field(default_factory=list)
    initial_dirty: int = 0
    remaining_dirty: int = 0
    report: RepairReport | None = None

    @property
    def improvement(self) -> float:
        """Final % quality improvement over the initial instance."""
        return quality_improvement(self.initial_loss, self.final_loss)


class GDREngine:
    """Guided data repair over one database instance.

    Parameters
    ----------
    db:
        The dirty instance; repaired **in place**.
    rules:
        The quality rules Σ.
    oracle:
        The user (simulated or real).
    config:
        Engine knobs; defaults to the full GDR preset.
    clean_db:
        Optional ground truth enabling loss-vs-truth trajectories and
        the precision/recall report.

    Examples
    --------
    >>> from repro.db import Database, Schema
    >>> from repro.constraints import RuleSet, parse_rules
    >>> from repro.core import GDREngine, GroundTruthOracle
    >>> schema = Schema("r", ["zip", "city"])
    >>> dirty = Database(schema, [["46360", "Westville"]])
    >>> clean = Database(schema, [["46360", "Michigan City"]])
    >>> rules = RuleSet(parse_rules("(zip -> city, {46360 || 'Michigan City'})"))
    >>> engine = GDREngine(dirty, rules, GroundTruthOracle(clean), clean_db=clean)
    >>> result = engine.run()
    >>> dirty.value(0, "city")
    'Michigan City'
    """

    def __init__(
        self,
        db: Database,
        rules: RuleSet,
        oracle: UserOracle,
        config: GDRConfig | None = None,
        clean_db: Database | None = None,
        generate: bool = True,
    ) -> None:
        self.db = db
        self.rules = rules
        self.oracle = oracle
        self.config = config if config is not None else GDRConfig.gdr()
        self.clean_db = clean_db
        self.initial_db = db.snapshot()

        self.detector = ViolationDetector(db, rules)
        self.state = RepairState()
        # engine-owned Eq. 7 cache: one code-space memo shared by the
        # suggestion engine and the learner's feature encoder — no
        # module-global state leaking across engines or datasets
        self.sim_cache = SimilarityCache(
            db.columns, capacity=self.config.sim_cache_capacity
        )
        self.generator = UpdateGenerator(
            db, rules, self.detector, self.state, sim=self.sim_cache
        )
        self.manager = ConsistencyManager(db, rules, self.detector, self.state, self.generator)
        self.learner: FeedbackLearner | None = None
        if self.config.learning != "none":
            self.learner = FeedbackLearner(
                db.schema,
                sim=self.sim_cache,
                n_estimators=self.config.n_estimators,
                max_depth=self.config.max_depth,
                min_examples=self.config.min_examples,
                seed=self.config.seed,
            )
        self.voi = VOIEstimator(self.detector, key_capacity=self.config.voi_cache_capacity)
        self.strategy = self._build_strategy()
        self.policy = EffortPolicy(
            batch_size=self.config.batch_size,
            min_labels=self.config.min_labels,
            use_benefit_quota=self.config.use_benefit_quota,
        )
        self.evaluator: QualityEvaluator | None = None
        if clean_db is not None:
            self.evaluator = QualityEvaluator(clean_db, rules)

        # the incrementally maintained group partition, and (for VOI
        # ranking) the stamped benefit cache. Attached before the
        # initial generation pass so every suggestion flows through the
        # event stream.
        self.group_index = GroupIndex(self.state, grouping=self.config.grouping)
        self.benefit_cache: GroupBenefitCache | None = None
        if self.config.ranking == "voi":
            self.benefit_cache = GroupBenefitCache(
                self.voi,
                self.group_index,
                self.detector,
                db,
                self.learner,
            )

        # robustness layer: write-ahead journal
        self.journal: FeedbackJournal | None = None
        if self.config.journal_path is not None:
            self.journal = FeedbackJournal(
                self.config.journal_path, fsync=self.config.journal_fsync
            )
            self.manager.journal = self.journal
            db.add_write_hook(self._journal_write_hook)
            if self.journal.seq == 0:
                self.journal.log_meta(db, asdict(self.config))

        if generate:
            self.generator.generate_all()
        self.initial_dirty = self.detector.dirty_count()
        # group keys the user has given feedback on; the learner only
        # ever decides inside these contexts (the paper's grouping
        # locality: models "adapt locally to the current group")
        self._visited_groups: set[tuple[str, object]] = set()
        # loop-position snapshot maintained during run(); what
        # checkpoint() serialises alongside the structural state
        self._loop_state: dict = {
            "phase": "interactive",
            "iterations": 0,
            "feedback_used": 0,
            "learner_decisions": 0,
            "trajectory": [],
            "stalled": 0,
            "feedback_limit": None,
            "drain": True,
            "initial_loss": None,
            "session_rng": None,
            "strategy_rng": None,
        }
        # set by GDREngine.restore(); consumed by resume()
        self._resume_state: dict | None = None

    def _journal_write_hook(
        self, tid: int, attribute: str, old: object, new: object, source: str
    ) -> None:
        self.journal.log_write(tid, attribute, old, new, source)

    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Release every listener the engine's substrate registered.

        Call when the database (or repair state) outlives the engine —
        e.g. when constructing several engines over one instance to
        compare configurations — so discarded engines stop receiving
        write and state events.
        """
        self.detector.detach()
        self.manager.detach()
        self.generator.detach()
        self.group_index.detach()
        if self.benefit_cache is not None:
            self.benefit_cache.detach()
        if self.journal is not None:
            self.db.remove_write_hook(self._journal_write_hook)
            self.manager.journal = None
            self.journal.close()

    # ------------------------------------------------------------------
    # durability: checkpoint / restore / resume
    # ------------------------------------------------------------------
    #: 5: the config lost the three runtime-audit knobs (``guard``
    #: and its interval and incident budget), which a format-4 file
    #: still carries; 4: the config lost the reference-path knobs
    #: (``pipeline``, ``drain``, ``suggest``, ``learner``), which a
    #: format-3 file still carries; 3: committees pickle as per-forest
    #: node arrays (format-2 files hold per-tree objects a restored
    #: learner cannot predict with)
    _CHECKPOINT_FORMAT = 5

    def checkpoint(self, path: str | Path) -> None:
        """Serialise the full session state to *path*, atomically.

        Captures the instance (rows by tid), the repair state
        (suggestions, prevented values, frozen cells), the learner's
        training set and fitted committees, the loop position recorded
        at the last safe point (iteration top / drain start, including
        RNG states), and the journal sequence covered — everything
        :meth:`restore` + :meth:`resume` need to continue the session.
        Written to a temp file and renamed, so a kill mid-checkpoint
        leaves the previous checkpoint intact.
        """
        rows, next_tid = self.db.export_rows()
        initial_rows, initial_next_tid = self.initial_db.export_rows()
        payload = {
            "format": self._CHECKPOINT_FORMAT,
            "config": asdict(self.config),
            "schema": (self.db.schema.name, list(self.db.schema.attributes)),
            "rows": rows,
            "next_tid": next_tid,
            "initial_rows": initial_rows,
            "initial_next_tid": initial_next_tid,
            "initial_dirty": self.initial_dirty,
            "pool": [
                (u.tid, u.attribute, u.value, u.score) for u in self.state.updates()
            ],
            "prevented": self.state.prevented_map(),
            "frozen": self.state.frozen_cells(),
            "visited_groups": set(self._visited_groups),
            "learner": self.learner.export_state() if self.learner is not None else None,
            "loop": dict(self._loop_state),
            "journal_seq": self.journal.seq if self.journal is not None else 0,
        }
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self.journal is not None:
            self.journal.log_checkpoint(path, payload["loop"]["phase"])

    @classmethod
    def restore(
        cls,
        path: str | Path,
        rules: RuleSet,
        oracle: UserOracle,
        clean_db: Database | None = None,
    ) -> "GDREngine":
        """Rebuild an engine from a :meth:`checkpoint` file.

        The caller supplies the non-serialisable collaborators (rules
        and oracle — and the ground truth, when loss trajectories are
        wanted); everything else comes from the checkpoint. Follow with
        :meth:`resume` to continue the interrupted run.
        """
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
        if payload.get("format") != cls._CHECKPOINT_FORMAT:
            raise ConfigError(
                f"checkpoint {path} has format {payload.get('format')!r}, "
                f"expected {cls._CHECKPOINT_FORMAT}"
            )
        schema = Schema(payload["schema"][0], payload["schema"][1])
        try:
            db = Database.from_rows(schema, payload["rows"], payload["next_tid"])
            initial_db = Database.from_rows(
                schema, payload["initial_rows"], payload["initial_next_tid"]
            )
        except SchemaError as exc:
            raise ConfigError(f"checkpoint {path} holds an invalid instance: {exc}") from exc
        config = GDRConfig(**payload["config"])
        engine = cls(db, rules, oracle, config, clean_db, generate=False)
        engine.initial_db = initial_db
        engine.initial_dirty = payload["initial_dirty"]
        # order matters: flags first (they carry no pool entries), then
        # the pool itself — each put flows through the state events into
        # the incremental group index
        for cell in sorted(payload["frozen"]):
            engine.state.freeze(cell)
        for cell in sorted(payload["prevented"]):
            for value in sorted(payload["prevented"][cell], key=repr):
                engine.state.prevent(cell, value)
        for tid, attribute, value, score in payload["pool"]:
            engine.state.put(CandidateUpdate(tid, attribute, value, score))
        if engine.learner is not None and payload["learner"] is not None:
            engine.learner.restore_state(payload["learner"])
        engine._visited_groups = set(payload["visited_groups"])
        engine._loop_state = dict(payload["loop"])
        engine._resume_state = {
            "journal_seq": payload["journal_seq"],
            "loop": dict(payload["loop"]),
        }
        return engine

    def resume(self) -> GDRResult:
        """Continue the interrupted run a restored engine checkpointed.

        Re-enters :meth:`run` at the checkpointed loop position. User
        answers recorded in the journal after the checkpoint are
        replayed through a :class:`~repro.db.journal.ReplayOracle`
        (falling through to the live oracle once the tail is dry), so
        re-execution reaches the kill point without re-asking the user
        and then simply keeps going. A session checkpointed at drain
        start replays nothing — the drain consults no oracle — and
        re-runs the drain deterministically. The re-execution journals
        its own records; the resumed ``run`` marker's ``base_seq``
        marks the post-checkpoint originals as superseded so the
        journal's effective history stays linear (see
        :meth:`FeedbackJournal.effective_records`).
        """
        if self._resume_state is None:
            raise ConfigError(
                "resume() requires an engine built by GDREngine.restore()"
            )
        resume = self._resume_state
        self._resume_state = None
        loop = dict(resume["loop"])
        if self.journal is not None:
            # fail fast on a journal from a different session: the meta
            # fingerprint must match the restored initial instance and
            # the recorded config must match the checkpoint's
            FeedbackJournal.verify_meta(
                self.journal.path, self.initial_db, asdict(self.config)
            )
            tail = FeedbackJournal.feedback_tail(
                self.journal.path, after_seq=resume["journal_seq"]
            )
            if tail:
                self.oracle = ReplayOracle(tail, self.oracle)
            # recorded on the resumed run marker so effective_records /
            # replay_writes / feedback_tail can drop the post-checkpoint
            # records this re-execution supersedes
            loop["base_seq"] = resume["journal_seq"]
        if loop["initial_loss"] is None:
            # checkpointed before the run ever started: plain fresh run
            return self.run(loop["feedback_limit"], drain=loop["drain"])
        return self.run(loop["feedback_limit"], drain=loop["drain"], _resume=loop)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """One aggregated snapshot of every cache and journal counter.

        The benches read this instead of plumbing individual counters;
        keys mirror the component names (``sim`` →
        ``SimilarityCache.stats``: hits, misses, evictions, entries, and
        ``kernel_batches``/``kernel_pairs``, the Eq. 7 kernel calls and
        the pairs they scored; ``cache`` →
        ``GroupBenefitCache.stats``: p̃ values reused and predicted
        (``prob_memo_hits`` / ``prob_memo_misses``), predictions by
        cause, and of the values a committee predicted those encoded
        afresh (``prob_rows_encoded``) and those voting a stored
        encoding (``prob_rows_reused``); ``voi`` → the probe-key table's
        ``DeltaKeyCache.stats``, ``generator`` →
        ``UpdateGenerator.stats`` (the witness, scenario-2 and decision
        memos: sizes, hits, misses, and the decision memo's evictions on
        writes that moved a pool and wholesale clears by cause),
        ``journal`` → path and sequence, ``faults`` → the registered
        fault points (from the machine-readable
        ``FAULT_POINT_REGISTRY``) and whichever are currently armed).
        """
        from repro.testing.faults import armed_points, fault_points

        return {
            "sim": dict(self.sim_cache.stats),
            "cache": dict(self.benefit_cache.stats) if self.benefit_cache is not None else {},
            "voi": dict(self.voi.stats),
            "generator": dict(self.generator.stats),
            "journal": (
                {"path": str(self.journal.path), "seq": self.journal.seq}
                if self.journal is not None
                else {}
            ),
            "faults": {
                "registered": {
                    name: point.module for name, point in fault_points().items()
                },
                "armed": armed_points(),
            },
        }

    # ------------------------------------------------------------------
    def _build_strategy(self) -> RankingStrategy:
        if self.config.ranking == "voi":
            return VOIRanking(self.voi)
        if self.config.ranking == "greedy":
            return GreedyRanking()
        return RandomRanking(seed=self.config.seed)

    def probability(self, update: CandidateUpdate) -> float:
        """``p̃``: learner confirm probability, score prior while cold."""
        prior = update.score if self.config.voi_prior == "score" else 0.5
        if self.learner is None or not self.learner.has_model(update.attribute):
            return prior
        return self.learner.predict(update, self.db.values_snapshot(update.tid)).confirm_probability

    def current_loss(self) -> float:
        """Eq. 3 loss now (vs ground truth when available)."""
        if self.evaluator is not None:
            return self.evaluator.loss(self.detector)
        # proxy without ground truth: weighted violation mass
        weights = self.detector.weights()
        total = 0.0
        for rule in self.rules:
            context = max(1, self.detector.context_size(rule))
            total += weights[rule] * self.detector.violating_tuple_count(rule) / context
        return total

    # ------------------------------------------------------------------
    def run(
        self,
        feedback_limit: int | None = None,
        drain: bool = True,
        _resume: dict | None = None,
    ) -> GDRResult:
        """Execute the interactive loop until done or out of budget.

        Parameters
        ----------
        feedback_limit:
            The user's total label budget ``F``; ``None`` means the
            user is available until no suggestions remain.
        drain:
            When False, stop after the interactive phase without the
            Figure 5 automatic drain — the drain benchmark uses this to
            time the drain phase in isolation.
        _resume:
            Internal: the checkpointed loop position a restored session
            continues from (see :meth:`resume`). Presets the budget,
            counters, trajectory and RNG states; everything after the
            checkpoint is re-derived by deterministic re-execution.
        """
        budget = FeedbackBudget(feedback_limit)
        if _resume is not None:
            budget.used = _resume["feedback_used"]
            result = GDRResult(
                initial_loss=_resume["initial_loss"],
                initial_dirty=self.initial_dirty,
            )
            result.iterations = _resume["iterations"]
            result.trajectory = list(_resume["trajectory"])
            learner_decisions = _resume["learner_decisions"]
            stalled = _resume["stalled"]
        else:
            result = GDRResult(
                initial_loss=self.current_loss(),
                initial_dirty=self.initial_dirty,
            )
            result.trajectory.append(TrajectoryPoint(0, 0, result.initial_loss))
            learner_decisions = 0
            stalled = 0
        if self.journal is not None:
            self.journal.log_run(
                feedback_limit,
                drain,
                resumed=_resume is not None,
                base_seq=_resume.get("base_seq", 0) if _resume is not None else None,
            )

        def on_feedback() -> None:
            result.trajectory.append(
                TrajectoryPoint(budget.used, learner_decisions, self.current_loss())
            )

        def on_learner_decision() -> None:
            nonlocal learner_decisions
            learner_decisions += 1
            result.trajectory.append(
                TrajectoryPoint(budget.used, learner_decisions, self.current_loss())
            )

        session = InteractiveSession(
            self.db,
            self.state,
            self.manager,
            self.oracle,
            self.learner,
            ordering="random" if self.config.learning == "passive" else "uncertainty",
            batch_size=self.config.batch_size,
            seed=self.config.seed,
            max_decision_uncertainty=self.config.max_decision_uncertainty,
        )
        if _resume is not None:
            session.rng_state = _resume["session_rng"]
            if _resume["strategy_rng"] is not None:
                self.strategy.rng_state = _resume["strategy_rng"]

        def capture(phase: str) -> dict:
            """Loop position at a safe point (top of iteration / drain)."""
            return {
                "phase": phase,
                "iterations": result.iterations,
                "feedback_used": budget.used,
                "learner_decisions": learner_decisions,
                "trajectory": list(result.trajectory),
                "stalled": stalled,
                "feedback_limit": feedback_limit,
                "drain": drain,
                "initial_loss": result.initial_loss,
                "session_rng": session.rng_state,
                "strategy_rng": getattr(self.strategy, "rng_state", None),
            }

        auto_path = self.config.checkpoint_path
        phase = _resume["phase"] if _resume is not None else "interactive"
        while (
            phase == "interactive"
            and not budget.exhausted
            and result.iterations < self.config.max_iterations
        ):
            fault_hit("engine.iteration", iteration=result.iterations)
            self._loop_state = capture("interactive")
            if auto_path is not None and result.iterations % self.config.checkpoint_every == 0:
                self.checkpoint(auto_path)
            self.manager.refresh_suggestions()
            if len(self.state) == 0:
                break
            group, benefit, max_benefit, group_count = self._pick_top_group()
            if self.config.learning == "none" or not self.config.use_benefit_quota:
                quota = group.size
            else:
                quota = self.policy.group_quota(
                    group.size, benefit, max_benefit, self.initial_dirty
                )
            report = session.run(
                group, quota, budget, on_feedback=on_feedback, on_learner_decision=on_learner_decision
            )
            if report.labeled > 0:
                self._visited_groups.add(group.key)
            result.iterations += 1
            if report.labeled == 0 and report.learner_decided == 0:
                stalled += 1
                if stalled >= group_count:
                    break  # nothing labelable or decidable remains
            else:
                stalled = 0

        if drain and self.learner is not None:
            # the drain consults no oracle, so a drain-start checkpoint
            # plus deterministic re-execution recovers any mid-drain kill
            self._loop_state = capture("drain")
            if auto_path is not None:
                self.checkpoint(auto_path)
            # the callback increments learner_decisions for every decision
            self._drain_with_learner(on_learner_decision)

        result.feedback_used = budget.used
        result.learner_decisions = learner_decisions
        result.final_loss = self.current_loss()
        result.remaining_dirty = self.detector.dirty_count()
        if self.clean_db is not None:
            result.report = evaluate_repair(self.initial_db, self.db, self.clean_db)
        return result

    # ------------------------------------------------------------------
    def _pick_top_group(self) -> tuple[UpdateGroup, float, float, int]:
        """Group selection: ``(group, benefit, max benefit, #groups)``.

        Picks what ``strategy.rank`` over a fresh ``group_updates``
        partition would put first, without re-scoring the world:

        * VOI — the benefit cache re-scores only stale groups and
          heap-selects the top; the top's benefit *is* the maximum
          (benefit is the primary sort key).
        * Greedy — largest group first straight off the maintained
          index; the score (and thus the maximum score) is the top
          group's size.
        * Random — one permutation over the index's group list,
          consuming the RNG exactly like a ranking of fresh groups.
        """
        index = self.group_index
        if self.benefit_cache is not None:
            group, benefit = self.benefit_cache.top(self.probability)
            return group, benefit, benefit, len(index)
        if self.config.ranking == "greedy":
            # the index's cached key order is the greedy tie-break
            # (type-aware key sort), so the first maximum-size key IS
            # the ranked winner — O(1) size reads, no group
            # materialisation for the losers
            best_key = None
            best_size = -1
            for key in index.keys():
                size = index.size(key)
                if size > best_size:
                    best_key, best_size = key, size
            group = index.group(best_key)
            return group, float(best_size), float(best_size), len(index)
        ranked = self.strategy.rank(index.groups(), self.probability)
        group, benefit = ranked[0]
        return group, benefit, max(score for __, score in ranked), len(ranked)

    # ------------------------------------------------------------------
    def drain_remaining(
        self,
        on_learner_decision=None,
        restrict: bool | None = None,
        max_passes: int = 25,
    ) -> int:
        """Run the Figure 5 automatic phase on demand.

        Lets the learner decide the remaining suggestions — the
        protocol's "GDR decides about the rest of the updates
        automatically". *restrict* ``None`` honours the engine's
        grouping locality (decisions stay inside group contexts the
        user inspected); ``False`` decides the whole remaining pool,
        the literal Figure 5 reading. Returns the number of decisions
        made.
        """
        if self.learner is None:
            return 0
        callback = on_learner_decision if on_learner_decision is not None else lambda: None
        return self._drain_with_learner(callback, max_passes=max_passes, restrict=restrict)

    def _drain_with_learner(
        self, on_learner_decision, max_passes: int = 25, restrict: bool | None = None
    ) -> int:
        """After the user stops, let the learner decide what remains.

        This is the Figure 5 protocol: the user affords ``F`` labels,
        then "GDR decides about the rest of the updates automatically".
        With grouping enabled, decisions stay inside group contexts the
        user actually inspected — the model has only adapted locally to
        those (§5.2) and deciding unseen contexts is how a committee
        becomes confidently wrong. Passes repeat because decisions
        regenerate suggestions; the drain stops at a fixpoint or after
        *max_passes*.

        Each pass runs one batched committee pass over every candidate
        against a copy-on-write snapshot view and applies the decisions
        in order (:func:`~repro.core.session.decide_batched`), which
        decides exactly as predicting and applying one update at a time
        would: predictions are pure, no model refits happen mid-drain,
        an apply writes only its own tuple, and updates whose tuple
        *was* written earlier in the pass are re-predicted at their
        turn.
        """
        decided = 0
        if restrict is None:
            restrict = self.config.grouping

        def callback() -> None:
            fault_hit("drain.decision", decided=decided)
            on_learner_decision()

        for _pass in range(max_passes):
            fault_hit("engine.drain_pass", index=_pass)
            self.manager.refresh_suggestions()
            updates = self._drain_candidates(restrict)
            if not updates:
                break
            progress = decide_batched(
                self.db,
                self.learner,
                self.state,
                self.manager,
                updates,
                self._decision_allowed,
                callback,
            )
            decided += progress
            if progress == 0:
                break
        return decided

    def _decision_allowed(self, update: CandidateUpdate, prediction) -> bool:
        return delegation_allowed(
            self.learner, self.config.max_decision_uncertainty, update, prediction
        )

    def _drain_candidates(self, restrict: bool) -> list[CandidateUpdate]:
        """Live updates the drain may decide, in cell order.

        With grouping locality active, reads only the visited groups'
        members off the index instead of filtering the whole pool (the
        same set, in the same order, as filtering the pool by
        ``_visited_groups``).
        """
        if not restrict:
            return self.state.updates()
        members: list[CandidateUpdate] = []
        for key in self._visited_groups:
            group = self.group_index.group(key)
            if group is not None:
                members.extend(group.updates)
        members.sort(key=lambda u: u.cell)
        return members
