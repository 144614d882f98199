"""Random forests by bagging the CART trees of :mod:`repro.ml.tree`.

The paper's strongest rank-prediction method (Section 4.2.3, Figure 3,
Table 1) is a random forest with 300 trees whose impurity importances drive
the discriminative-subgraph analysis of Figure 4.

Each tree trains on a bootstrap sample and considers a random feature
subset at every split (``max_features``).  Defaults follow the era's
scikit-learn: regressors consider all features, classifiers ``sqrt``.  The
experiment pipelines pass ``max_features="sqrt"`` for regressors too when
the subgraph vocabularies are large; that choice is recorded per experiment.

Engines and parallelism
-----------------------
``engine="fast"`` (default) grows all trees level-synchronously through
:mod:`repro.ml.tree_batched`, amortising numpy dispatch across every
same-depth node of the whole forest; ``engine="reference"`` fits each tree
with the plain per-node builder.  Both produce bit-identical estimators.

``n_jobs`` fans tree chunks over :func:`~repro.runtime.executor.parallel_map`,
which ships ``X, y`` once per worker.  Per-tree RNG seeds — one for the split
sampler, one for the bootstrap — are pre-drawn from the sequential stream
of ``random_state`` *before* any fanning, so every worker count (and both
engines) yields exactly the trees that ``n_jobs=1`` would have grown:
predictions and ``feature_importances_`` are bit-identical, and so is
the run telemetry.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_X_y,
    check_array,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.tree_batched import fit_tree_batch
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext
from repro.runtime.executor import parallel_map

ENGINES = ("fast", "reference")


def _draw_tree_tasks(
    random_state: int | None, n_estimators: int
) -> list[tuple[int, int]]:
    """Pre-draw every tree's (split seed, bootstrap seed) sequentially.

    This is the PR 2 rng-sharding pattern: the sequential stream is
    consumed up front, so any partition of the task list across workers
    reproduces the ``n_jobs=1`` forest exactly.
    """
    rng = np.random.default_rng(random_state)
    tasks = []
    for _ in range(n_estimators):
        seed = int(rng.integers(0, 2**31 - 1))
        boot_seed = int(rng.integers(0, 2**31 - 1))
        tasks.append((seed, boot_seed))
    return tasks


def _bootstrap_sample(boot_seed: int, n: int, bootstrap: bool) -> np.ndarray:
    if not bootstrap:
        return np.arange(n)
    return np.random.default_rng(boot_seed).integers(0, n, size=n)


def _fit_tree_tasks(
    X: np.ndarray, y: np.ndarray, spec: dict, tasks: list[tuple[int, int]]
) -> list:
    """Fit the trees for ``tasks`` with the configured engine, in order."""
    n = X.shape[0]
    samples = [
        (seed, _bootstrap_sample(boot_seed, n, spec["bootstrap"]))
        for seed, boot_seed in tasks
    ]
    params = spec["params"]
    classes = spec["classes"]
    if spec["engine"] == "fast":
        if classes is not None:
            y_fit = np.searchsorted(classes, y).astype(np.float64)
            return fit_tree_batch(
                X, y_fit, DecisionTreeClassifier, params, samples, classes=classes
            )
        return fit_tree_batch(X, y, DecisionTreeRegressor, params, samples)
    tree_cls = DecisionTreeClassifier if classes is not None else DecisionTreeRegressor
    trees = []
    for seed, sample in samples:
        tree = tree_cls(**params, random_state=seed)
        tree.fit(X[sample], y[sample])
        trees.append(tree)
    return trees


def _fit_tree_chunk(state, tasks: list[tuple[int, int]]) -> list:
    """Fit one chunk of trees (a :func:`parallel_map` task)."""
    X, y, spec = state
    telemetry = get_telemetry()
    with telemetry.span("forest/chunk"):
        trees = _fit_tree_tasks(X, y, spec, tasks)
        telemetry.count("forest/trees_fit", len(tasks))
    return trees


class _BaseForest(BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        bootstrap: bool = True,
        random_state: int | None = None,
        n_jobs: int | None = None,
        engine: str | None = None,
        ctx: RunContext | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        # An explicit n_jobs wins over the context's, which wins over 1.
        ctx = RunContext.ensure(ctx, engine=engine, n_jobs=n_jobs)
        engine = ctx.resolve_engine(ENGINES, default="fast", param="forest engine")
        n_jobs = ctx.resolved_n_jobs(default=1)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.n_jobs = n_jobs
        self.engine = engine
        self.estimators_: list = []
        self.feature_importances_: np.ndarray | None = None

    def _tree_params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def _fit_spec(self) -> dict:
        return {
            "params": self._tree_params(),
            "engine": self.engine,
            "bootstrap": self.bootstrap,
            "classes": getattr(self, "classes_", None),
        }

    def _fit_forest(self, X: np.ndarray, y: np.ndarray) -> None:
        telemetry = get_telemetry()
        tasks = _draw_tree_tasks(self.random_state, self.n_estimators)
        spec = self._fit_spec()
        telemetry.annotate("forest/engine", self.engine)
        telemetry.count("forest/trees", self.n_estimators)
        with telemetry.span("forest/fit"):
            # Fewer than two trees per worker cannot amortise a pool.
            n_jobs = self.n_jobs if self.n_estimators >= 2 * self.n_jobs else 1
            chunksize = -(-len(tasks) // n_jobs)  # ceil: one chunk per worker
            chunks = [
                tasks[start : start + chunksize]
                for start in range(0, len(tasks), chunksize)
            ]
            trees = [
                tree
                for chunk_trees in parallel_map(
                    _fit_tree_chunk, chunks, n_jobs=n_jobs, setup_args=(X, y, spec)
                )
                for tree in chunk_trees
            ]
        self.estimators_ = trees
        importances = np.zeros(X.shape[1])
        for tree in trees:  # tree order, so any n_jobs sums identically
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bagged CART regressors; prediction is the mean over trees."""

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        self._fit_forest(X, y)
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        predictions = np.stack([tree.predict(X) for tree in self.estimators_])
        return predictions.mean(axis=0)


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bagged CART classifiers; prediction averages class probabilities.

    Trees may see different bootstrap class subsets (reference engine
    derives per-tree class axes; the batched engine fits on the forest
    axis directly), so probabilities are re-aligned to the forest-level
    ``classes_`` before averaging — the two layouts average identically.
    """

    def __init__(self, max_features="sqrt", **kwargs) -> None:
        super().__init__(max_features=max_features, **kwargs)
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X = check_array(X)
        y = np.asarray(y)
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"X has {X.shape[0]} samples but y has {y.shape[0]}")
        self.classes_ = np.unique(y)
        self._fit_forest(X, y)
        self._fitted = True
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        total = np.zeros((X.shape[0], self.classes_.size))
        class_index = {c: i for i, c in enumerate(self.classes_)}
        for tree in self.estimators_:
            probabilities = tree.predict_proba(X)
            columns = [class_index[c] for c in tree.classes_]
            total[:, columns] += probabilities
        return total / len(self.estimators_)

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
