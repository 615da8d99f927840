"""Acquisition functions: each one maps (features, classifier, pool, budget)
to exactly min(B, |unlabeled|) distinct unlabeled indices.

All strategies are pure functions of their arguments plus a seed; repeated
invocation is bit-identical. Ties always break toward the smaller dataset
index. Probability work happens in float64.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .classifier import LinearClassifier, mc_dropout_proba, predict_proba
from .geometry import (
    _kmeanspp_from_dist,
    _weighted_pick,
    greedy_k_center,
    kmeans,
    knn,
    nearest_to_centroids,
    pairwise_sq_dist,
)
from .rng import derive_rng, derive_seed

# a diversified query clusters the top SHORTLIST_FACTOR * B scored points
SHORTLIST_FACTOR = 50


class StrategyUnavailable(RuntimeError):
    """The strategy cannot run in the current pool state (e.g. no anchors yet)."""


@dataclass
class QuerySpec:
    """Strategy identifier plus its hyperparameters (defaults = benchmark protocol).

    The feature-dropout ratio is not one of them: bald, powerbald, inference
    dropout and dropquery all use the classifier's ``train_config.dropout_rho``.
    """

    kind: str
    diversify: bool = False
    inference_dropout: bool = False
    mc_samples: int = 20
    dq_m: int = 3
    dq_literal: bool = False
    power_beta: float = 1.0
    alfamix_eps_scale: float = 0.2
    typiclust_max_clusters: int = 500
    typiclust_knn: int = 20
    probcover_purity: float = 0.95

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy kind {self.kind!r}; choose from {', '.join(STRATEGY_KINDS)}"
            )
        for name in ("mc_samples", "dq_m", "typiclust_max_clusters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def strategy_id(self) -> str:
        """Record identifier; diversification variants get their own id."""
        sid = self.kind
        if self.diversify and _STRATEGIES[self.kind] is _ranked:
            sid += "_divdrop" if self.inference_dropout else "_div"
        if self.kind == "dropquery" and self.dq_literal:
            sid += "_literal"
        return sid


@dataclass
class QueryResult:
    """Selected unlabeled indices, plus the candidate-set fraction for dropquery."""

    selected: np.ndarray
    candidate_fraction: Optional[float] = None

    def __post_init__(self):
        self.selected = np.asarray(self.selected, dtype=np.int64)


# ---------------------------------------------------------------------------
# scoring


def score_uncertainty(probs: np.ndarray) -> np.ndarray:
    """1 - max class probability (higher = less confident)."""
    return 1.0 - np.asarray(probs, dtype=np.float64).max(axis=1)


def score_entropy(probs: np.ndarray) -> np.ndarray:
    """Predictive entropy in nats over the last (class) axis, with 0*log(0) = 0."""
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def score_margin(probs: np.ndarray) -> np.ndarray:
    """Negated top-two probability margin, so higher = more uncertain."""
    p = np.sort(np.asarray(probs, dtype=np.float64), axis=1)
    return -(p[:, -1] - p[:, -2])


def score_bald(mc_probs: np.ndarray) -> np.ndarray:
    """Mutual information: entropy of the mean minus mean entropy, clamped >= 0."""
    mc = np.asarray(mc_probs, dtype=np.float64)
    mean_entropy = score_entropy(mc).mean(axis=0)
    entropy_mean = score_entropy(mc.mean(axis=0))
    return np.maximum(entropy_mean - mean_entropy, 0.0)


def _score_order(scores: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Indices sorted by descending score, ascending index on ties."""
    indices = np.asarray(indices, dtype=np.int64)
    return indices[np.lexsort((indices, -np.asarray(scores, dtype=np.float64)))]


def select_topb(scores: np.ndarray, unlabeled: np.ndarray, b: int) -> np.ndarray:
    """The b highest-scoring unlabeled indices; ties to the smaller index."""
    return _score_order(scores, unlabeled)[:b]


def _probs_minus_onehot(probs: np.ndarray) -> np.ndarray:
    """probs - onehot(argmax probs): the cross-entropy gradient w.r.t. the
    logits when the predicted class is taken as the label."""
    out = probs.copy()
    out[np.arange(len(probs)), np.argmax(probs, axis=1)] -= 1.0
    return out


def _train_pool(labeled, unlabeled):
    """The sorted train pool labeled | unlabeled, and its labeled mask."""
    labeled = np.asarray(labeled, dtype=np.int64)
    pool = np.sort(np.concatenate([labeled, np.asarray(unlabeled, dtype=np.int64)]))
    return pool, np.isin(pool, labeled)


def _cluster_pick(
    features: np.ndarray, candidates: np.ndarray, fallback: np.ndarray, b: int, seed: int
) -> np.ndarray:
    """The candidate nearest each centroid of a min(b, |candidates|)-means over
    the candidates (kmeans seeded with ``seed``), padded to b from ``fallback``
    in order, skipping indices already picked."""
    picked = np.empty(0, dtype=np.int64)
    if len(candidates):
        cl = kmeans(features[candidates], min(b, len(candidates)), seed)
        picked = candidates[nearest_to_centroids(features[candidates], cl)]
    if len(picked) < b:
        chosen = set(picked.tolist())
        pad = [i for i in fallback.tolist() if i not in chosen][: b - len(picked)]
        picked = np.concatenate([picked, np.asarray(pad, dtype=np.int64)])
    return picked


# ---------------------------------------------------------------------------
# diversified top-K*B selection


def diversify(
    scores: np.ndarray,
    features: np.ndarray,
    unlabeled: np.ndarray,
    b: int,
    k_multiplier: int = SHORTLIST_FACTOR,
    seed: int = 0,
) -> np.ndarray:
    """Cluster the top-(K*B) scored points into B clusters, take cluster medoid-like picks.

    The kmeans call uses ``seed`` directly, so the selection can be replayed
    through the public geometry API. Shortfalls are padded from the shortlist
    in score order.
    """
    if k_multiplier < 1:
        raise ValueError(f"k_multiplier must be >= 1, got {k_multiplier}")
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    b_eff = min(b, len(unlabeled))
    if b_eff == 0:
        return np.empty(0, dtype=np.int64)
    shortlist = _score_order(scores, unlabeled)[: k_multiplier * b_eff]
    return _cluster_pick(features, shortlist, shortlist, b_eff, seed)


# ---------------------------------------------------------------------------
# individual strategies


def query_random(unlabeled: np.ndarray, b: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    b_eff = min(b, len(unlabeled))
    return rng.choice(unlabeled, size=b_eff, replace=False)


def query_powerbald(
    bald_scores: np.ndarray,
    unlabeled: np.ndarray,
    b: int,
    beta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample B indices without replacement with probability ~ (score + 1e-12)^beta."""
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    weights = (np.maximum(np.asarray(bald_scores, dtype=np.float64), 0.0) + 1e-12) ** beta
    b_eff = min(b, len(unlabeled))
    picks = []
    alive = np.ones(len(unlabeled), dtype=bool)
    for _ in range(b_eff):
        pos = _weighted_pick(np.where(alive, weights, 0.0), rng)
        if not alive[pos]:
            pos = int(np.flatnonzero(alive)[0])
        picks.append(unlabeled[pos])
        alive[pos] = False
    return np.asarray(picks, dtype=np.int64)


def query_coreset(features: np.ndarray, labeled, unlabeled, b: int) -> np.ndarray:
    """Greedy k-center over the train pool with labeled points as existing centers."""
    pool, is_labeled = _train_pool(labeled, unlabeled)
    picks = greedy_k_center(features[pool], np.flatnonzero(is_labeled), min(b, len(unlabeled)))
    return pool[picks]


def query_badge(
    features: np.ndarray,
    clf: LinearClassifier,
    unlabeled,
    b: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-means++ seeding in gradient-embedding space via the factorized distance.

    The rng consumption matches kmeanspp_seed exactly, so the trace equals a
    k-means++ run on explicitly materialized embeddings sharing the rng.
    """
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    b_eff = min(b, len(unlabeled))
    Z = np.asarray(features, dtype=np.float64)[unlabeled]
    P = _probs_minus_onehot(predict_proba(clf, Z))
    z2 = np.einsum("ij,ij->i", Z, Z)
    p2 = np.einsum("ij,ij->i", P, P)
    g2 = z2 * p2  # ||z p^T||_F^2 per point

    def dist_to(j):
        return np.maximum(g2 + g2[j] - 2.0 * (Z @ Z[j]) * (P @ P[j]), 0.0)

    picks = _kmeanspp_from_dist(len(unlabeled), b_eff, rng, dist_to)
    return unlabeled[picks]


def query_alfamix(
    features: np.ndarray,
    clf: LinearClassifier,
    labeled,
    labeled_labels,
    unlabeled,
    b: int,
    eps_scale: float,
    seed: int,
) -> np.ndarray:
    """Interpolation-consistency query against per-class anchor means.

    For each unlabeled point and anchor, mixes by the d-dimensional first-order
    rule: alpha = eps * h / ||h|| with h = grad * (anchor - z) and
    eps = eps_scale / sqrt(d), then flags points whose predicted label flips.
    The rule approximates the original closed form; candidates are diversified
    by k-means (seeded with ``seed``).
    """
    labeled = np.asarray(labeled, dtype=np.int64)
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    if labeled.size == 0:
        raise StrategyUnavailable(
            "alfamix needs labeled anchors; select an initial pool first "
            "(use random or centroid init)"
        )
    b_eff = min(b, len(unlabeled))
    X = np.asarray(features, dtype=np.float64)
    d = X.shape[1]
    eps = eps_scale / np.sqrt(d)
    y_lab = np.asarray(labeled_labels, dtype=np.int64)
    anchors = np.stack([X[labeled[y_lab == c]].mean(axis=0) for c in np.unique(y_lab)])

    U = X[unlabeled]
    probs = predict_proba(clf, U)
    base = np.argmax(probs, axis=1)
    grads = _probs_minus_onehot(probs) @ clf.weights  # d-loss/d-z at each unlabeled point

    flips = np.zeros(len(unlabeled), dtype=np.int64)
    for anchor in anchors:
        direction = anchor[None, :] - U
        h = grads * direction
        norms = np.sqrt(np.einsum("ij,ij->i", h, h))
        alpha = np.where(norms[:, None] > 0, eps * h / np.maximum(norms, 1e-300)[:, None], 0.0)
        mixed = U + alpha * direction
        flips += np.argmax(predict_proba(clf, mixed), axis=1) != base

    entropy = score_entropy(probs)
    cand_mask = flips > 0
    cands = unlabeled[cand_mask]
    cand_order = cands[np.lexsort((cands, -entropy[cand_mask], -flips[cand_mask].astype(np.float64)))]
    rest_order = _score_order(entropy[~cand_mask], unlabeled[~cand_mask])
    return _cluster_pick(X, cands, np.concatenate([cand_order, rest_order]), b_eff, seed)


def _typicality_all(features: np.ndarray, k: int) -> np.ndarray:
    if features.shape[0] <= 1 or k < 1:
        return np.zeros(features.shape[0])
    _, dist = knn(features, min(k, features.shape[0] - 1))
    return 1.0 / (dist.mean(axis=1) + 1e-12)


def query_typiclust(
    features: np.ndarray,
    labeled,
    unlabeled,
    b: int,
    max_clusters: int,
    knn_k: int,
    seed: int,
) -> np.ndarray:
    """Cluster the train pool and take unlabeled members round-robin over the
    clusters ranked by labeled count asc, size desc, id asc: the densest of
    each, then the second densest of each cluster with one left, and so on."""
    b_eff = min(b, len(unlabeled))
    if b_eff == 0:
        return np.empty(0, dtype=np.int64)
    pool, is_labeled = _train_pool(labeled, unlabeled)
    X = np.asarray(features, dtype=np.float64)[pool]
    k = min(len(labeled) + b_eff, max_clusters, len(pool))
    cl = kmeans(X, k, seed)

    sizes = np.bincount(cl.assignments, minlength=k)
    lab_counts = np.bincount(cl.assignments[is_labeled], minlength=k)
    rank = np.lexsort((np.arange(k), -sizes, lab_counts))

    # per-cluster queues of unlabeled members, densest first; the round-robin
    # order is (position in its queue, cluster rank)
    queues, positions, ranks = [], [], []
    for r, cid in enumerate(rank):
        members = np.flatnonzero(cl.assignments == cid)
        cand = members[~is_labeled[members]]
        if cand.size == 0:
            continue
        typ = _typicality_all(X[members], min(knn_k, len(members) - 1))
        cand_typ = typ[np.searchsorted(members, cand)]
        queues.append(pool[cand[np.lexsort((cand, -cand_typ))]])
        positions.append(np.arange(cand.size))
        ranks.append(np.full(cand.size, r))
    order = np.lexsort((np.concatenate(ranks), np.concatenate(positions)))
    return np.concatenate(queues)[order[:b_eff]]


def estimate_delta(
    features: np.ndarray,
    num_classes: int,
    purity_threshold: float = 0.95,
    seed: int = 0,
) -> float:
    """Largest ball radius on a log grid whose pseudo-label purity clears the threshold.

    Pseudo-labels come from kmeans(features, num_classes, seed); the grid is 64
    log-spaced radii between the 1st and 99th percentile of 2000 sampled
    pairwise distances (pairs from default_rng(seed)).
    """
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    pseudo = kmeans(X, min(num_classes, n), seed).assignments

    rng = np.random.default_rng(seed)
    left = rng.integers(0, n, 2000)
    right = rng.integers(0, n - 1, 2000)
    right = np.where(right >= left, right + 1, right)  # pair without i == j
    sample = np.sqrt(np.einsum("ij,ij->i", X[left] - X[right], X[left] - X[right]))
    lo = max(float(np.percentile(sample, 1)), 1e-12)
    hi = max(float(np.percentile(sample, 99)), lo * (1 + 1e-9))
    grid = np.geomspace(lo, hi, 64)

    # a point stays pure at radius delta iff no differently-labeled point
    # sits within delta, so one pass over nearest cross-label distances
    # answers every grid value (sqrt is monotone, so it can follow the min)
    d2 = pairwise_sq_dist(X, X)
    d2[pseudo[:, None] == pseudo[None, :]] = np.inf
    nearest_cross = np.sqrt(d2.min(axis=1))
    purity = (nearest_cross[None, :] > grid[:, None]).mean(axis=1)
    passing = np.flatnonzero(purity >= purity_threshold)
    return float(grid[passing[-1]] if passing.size else grid[0])


def query_probcover(features: np.ndarray, labeled, unlabeled, b: int, delta: float) -> np.ndarray:
    """Greedy max-coverage over the delta-ball graph, seeded by labeled coverage."""
    pool, is_labeled = _train_pool(labeled, unlabeled)
    X = np.asarray(features, dtype=np.float64)[pool]
    adj = pairwise_sq_dist(X, X) <= delta * delta

    covered = adj[is_labeled].any(axis=0)
    cand = ~is_labeled
    picks = []
    for _ in range(min(b, len(unlabeled))):
        counts = np.where(cand, adj[:, ~covered].sum(axis=1), -1)
        pick = int(np.argmax(counts))
        picks.append(int(pool[pick]))
        covered |= adj[pick]
        cand[pick] = False
    return np.asarray(picks, dtype=np.int64)


def dropquery(
    features: np.ndarray,
    clf: LinearClassifier,
    unlabeled,
    b: int,
    m: int = 3,
    rho: float = 0.75,
    seed: int = 0,
    literal: bool = False,
) -> QueryResult:
    """Consistency-under-dropout query.

    The base prediction uses no dropout; ``m`` feature-dropout passes (masks
    seeded with ``seed`` through mc_dropout_proba) vote against it. A point
    joins the candidate set when more than half of the passes disagree with
    the base prediction. ``literal=True`` flips the predicate to keep the
    mostly-consistent points instead (the alternate reading, kept for audits).

    Candidates are clustered into B groups (kmeans seeded with ``seed``) and
    the member nearest each centroid is selected. An empty candidate set falls
    back to the top SHORTLIST_FACTOR*B by margin uncertainty, clustered the
    same way; a partial one is topped up with the highest-margin-uncertainty
    leftovers.
    """
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    b_eff = min(b, len(unlabeled))
    if b_eff == 0:
        return QueryResult(np.empty(0, dtype=np.int64), candidate_fraction=0.0)
    X = np.asarray(features, dtype=np.float64)
    U = X[unlabeled]
    base_probs = predict_proba(clf, U)
    base = np.argmax(base_probs, axis=1)
    mc = mc_dropout_proba(clf, U, m, rho, seed)
    agree = (np.argmax(mc, axis=2) == base[None, :]).sum(axis=0)
    if literal:
        cand_mask = agree > 0.5 * m
    else:
        cand_mask = (m - agree) > 0.5 * m
    cands = unlabeled[cand_mask]
    fraction = float(len(cands) / len(unlabeled))

    # an empty candidate set falls back to the margin top SHORTLIST_FACTOR*B;
    # padding from the whole margin order then equals padding from that
    # prefix, since fewer than B of its members are picked
    margin_order = _score_order(score_margin(base_probs), unlabeled)
    if cands.size == 0:
        cands = margin_order[: SHORTLIST_FACTOR * b_eff]
    selected = _cluster_pick(X, cands, margin_order, b_eff, seed)
    return QueryResult(selected, candidate_fraction=fraction)


# ---------------------------------------------------------------------------
# dispatcher


class _Round(NamedTuple):
    """One acquisition round's inputs, shared by every strategy table entry."""

    features: np.ndarray
    clf: LinearClassifier
    labeled: np.ndarray
    labeled_labels: np.ndarray
    unlabeled: np.ndarray
    b: int
    seed: int
    delta: Optional[float]


def _scores(spec: QuerySpec, r: _Round) -> np.ndarray:
    """Acquisition scores of the unlabeled points, higher = query first."""
    U = r.features[r.unlabeled]
    rho = r.clf.train_config.dropout_rho
    if spec.kind in ("bald", "powerbald"):
        return score_bald(mc_dropout_proba(r.clf, U, spec.mc_samples, rho, derive_seed(r.seed, "mc")))
    if spec.diversify and spec.inference_dropout:
        probs = mc_dropout_proba(r.clf, U, 1, rho, derive_seed(r.seed, "inference-dropout"))[0]
    else:
        probs = predict_proba(r.clf, U)
    scorer = {"uncertainty": score_uncertainty, "entropy": score_entropy, "margins": score_margin}
    return scorer[spec.kind](probs)


def _ranked(spec: QuerySpec, r: _Round) -> np.ndarray:
    """Score-ranked kinds: the top B, or the diversified top K*B."""
    scores = _scores(spec, r)
    if spec.diversify:
        return diversify(scores, r.features, r.unlabeled, r.b, seed=derive_seed(r.seed, "diversify"))
    return select_topb(scores, r.unlabeled, r.b)


def _probcover(spec: QuerySpec, r: _Round) -> np.ndarray:
    if r.delta is None:
        raise ValueError(
            "probcover needs delta: pass estimate_delta(...) of the train rows being labeled"
        )
    return query_probcover(r.features, r.labeled, r.unlabeled, r.b, r.delta)


# kind -> fn(spec, round) returning the selected indices or a QueryResult
_STRATEGIES = {
    "random": lambda spec, r: query_random(r.unlabeled, r.b, r.seed),
    "uncertainty": _ranked,
    "entropy": _ranked,
    "margins": _ranked,
    "bald": _ranked,
    "powerbald": lambda spec, r: query_powerbald(
        _scores(spec, r), r.unlabeled, r.b, spec.power_beta, derive_rng(r.seed, "power")
    ),
    "coreset": lambda spec, r: query_coreset(r.features, r.labeled, r.unlabeled, r.b),
    "badge": lambda spec, r: query_badge(
        r.features, r.clf, r.unlabeled, r.b, derive_rng(r.seed, "badge")
    ),
    "alfamix": lambda spec, r: query_alfamix(
        r.features, r.clf, r.labeled, r.labeled_labels, r.unlabeled, r.b,
        spec.alfamix_eps_scale, r.seed,
    ),
    "typiclust": lambda spec, r: query_typiclust(
        r.features, r.labeled, r.unlabeled, r.b,
        spec.typiclust_max_clusters, spec.typiclust_knn, r.seed,
    ),
    "probcover": _probcover,
    "dropquery": lambda spec, r: dropquery(
        r.features, r.clf, r.unlabeled, r.b, spec.dq_m, r.clf.train_config.dropout_rho, r.seed,
        spec.dq_literal,
    ),
}

STRATEGY_KINDS = tuple(_STRATEGIES)


def query(
    spec: QuerySpec,
    features: np.ndarray,
    clf: LinearClassifier,
    labeled,
    labeled_labels,
    unlabeled,
    b: int,
    seed: int,
    delta: Optional[float] = None,
) -> QueryResult:
    """Run one acquisition round for the given spec. Returns min(B, |unlabeled|) indices.

    probcover needs ``delta``, from estimate_delta over the train rows.
    """
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    b_eff = min(b, len(unlabeled))
    if b_eff == 0:
        return QueryResult(np.empty(0, dtype=np.int64))
    r = _Round(
        np.asarray(features, dtype=np.float64), clf, labeled, labeled_labels, unlabeled, b_eff, seed, delta
    )
    out = _STRATEGIES[spec.kind](spec, r)
    return out if isinstance(out, QueryResult) else QueryResult(out)
