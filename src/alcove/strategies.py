"""Acquisition functions: each one maps (features, classifier, pool, budget)
to exactly min(B, |unlabeled|) distinct unlabeled indices.

``query`` runs a kind from the ``_STRATEGIES`` table. ``prepare`` builds
what depends only on the train pool once per cell: probcover's delta-ball
graph, so each round runs only the cover.

All strategies are pure functions of their arguments plus a seed; repeated
invocation is bit-identical. Ties always break toward the smaller dataset
index. Probability work happens in float64.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .classifier import LinearClassifier, mc_dropout_passes, mc_dropout_proba, predict_proba
from .geometry import (
    _ball_graph,
    _kmeanspp_from_dist,
    _nearest_other_label_dist,
    _sq_norms,
    _weighted_pick,
    greedy_k_center,
    kmeans,
    knn,
    nearest_to_centroids,
)
from .initpool import _pad, random_init
from .rng import derive_rng, derive_seed

# a diversified query clusters the top SHORTLIST_FACTOR * B scored points
SHORTLIST_FACTOR = 50
# MC dropout passes per bald and powerbald score (BALD, Gal et al. 2017)
MC_SAMPLES = 20
# powerbald sampling exponent (PowerBALD, Kirsch et al. 2023)
POWER_BETA = 1.0
# alfamix step size, eps = ALFAMIX_EPS_SCALE / sqrt(d) (ALFA-Mix, Parvaneh et al. 2022)
ALFAMIX_EPS_SCALE = 0.2
# cap on typiclust's cluster count (TypiClust, Hacohen et al. 2022)
TYPICLUST_MAX_CLUSTERS = 500
# neighbours behind each typicality score (TypiClust, Hacohen et al. 2022)
TYPICLUST_KNN = 20
# pseudo-label purity the probcover radius must clear (ProbCover, Yehuda et al. 2022)
PROBCOVER_PURITY = 0.95


class StrategyUnavailable(RuntimeError):
    """The strategy cannot run in the current pool state (e.g. no anchors yet)."""


@dataclass
class QuerySpec:
    """Strategy kind plus only the switches a run varies (defaults = benchmark protocol).

    The baselines' own hyperparameters are module constants (MC_SAMPLES,
    POWER_BETA, ...), fixed as published. The feature-dropout ratio is not a
    field either: bald, powerbald, inference dropout and dropquery all use
    ``clf.dropout_rho``, the ratio of training.
    """

    kind: str
    diversify: bool = False
    inference_dropout: bool = False
    dq_m: int = 3
    dq_literal: bool = False

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy kind {self.kind!r}; choose from {', '.join(STRATEGY_KINDS)}"
            )
        if self.dq_m < 1:
            raise ValueError(f"dq_m must be >= 1, got {self.dq_m}")
        if self.inference_dropout and not self.diversify:
            raise ValueError("inference_dropout applies only with diversify=True")

    def strategy_id(self) -> str:
        """Record identifier; diversification variants get their own id."""
        sid = self.kind
        if self.diversify and _STRATEGIES[self.kind] is _ranked:
            sid += "_divdrop" if self.inference_dropout and self.kind in _PROB_SCORERS else "_div"
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


def score_bald(passes) -> np.ndarray:
    """Mutual information: entropy of the mean minus mean entropy, clamped >= 0.

    ``passes`` is any iterable of (n, C) probability arrays, such as a
    (samples, n, C) stack or ``mc_dropout_passes``. Only the running sums of
    the probabilities and of the per-pass entropies are kept. They add the
    passes in order and divide by the count at the end, as ``mean(axis=0)``
    does over a stack, so both give the same bits.
    """
    count, prob_sum, entropy_sum = 0, None, None
    for p in passes:
        p = np.asarray(p, dtype=np.float64)
        if count == 0:
            prob_sum, entropy_sum = p.copy(), score_entropy(p)
        else:
            prob_sum += p
            entropy_sum += score_entropy(p)
        count += 1
    if count == 0:
        raise ValueError("score_bald needs at least one pass")
    return np.maximum(score_entropy(prob_sum / count) - entropy_sum / count, 0.0)


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
    k = min(b, len(candidates))
    if k >= 1:
        cl = kmeans(features[candidates], k, seed)
        picked = candidates[nearest_to_centroids(features[candidates], cl)]
    return _pad(picked, fallback, b)


# ---------------------------------------------------------------------------
# diversified shortlist selection


def diversify(
    scores: np.ndarray, features: np.ndarray, unlabeled: np.ndarray, b: int, seed: int = 0
) -> np.ndarray:
    """Cluster the top SHORTLIST_FACTOR*B scored points into B clusters, take medoid-like picks.

    The kmeans call uses ``seed`` directly, so the selection can be replayed
    through the public geometry API. Shortfalls are padded from the shortlist
    in score order.
    """
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    b_eff = min(b, len(unlabeled))
    shortlist = _score_order(scores, unlabeled)[: SHORTLIST_FACTOR * b_eff]
    return _cluster_pick(features, shortlist, shortlist, b_eff, seed)


# ---------------------------------------------------------------------------
# individual strategies


def query_powerbald(
    bald_scores: np.ndarray,
    unlabeled: np.ndarray,
    b: int,
    beta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample B indices without replacement with probability ~ (score + 1e-12)^beta."""
    if not (np.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta={beta} must be finite and >= 0")
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
    if b_eff == 0:
        return np.empty(0, dtype=np.int64)
    Z = np.asarray(features, dtype=np.float64)[unlabeled]
    P = _probs_minus_onehot(predict_proba(clf, Z))
    z2 = _sq_norms(Z)
    p2 = _sq_norms(P)
    g2 = z2 * p2  # ||z p^T||_F^2 per point

    def dist_to(j):
        return np.maximum(g2 + g2[j] - 2.0 * (Z @ Z[j]) * (P @ P[j]), 0.0)

    picks = _kmeanspp_from_dist(len(unlabeled), b_eff, rng, dist_to)
    return unlabeled[picks]


def _anchor_flips(
    clf: LinearClassifier, U: np.ndarray, probs: np.ndarray, anchors: np.ndarray, eps: float
) -> np.ndarray:
    """How many anchors flip each row's predicted label under alfamix's mixing rule.

    Each anchor is mixed into every row at once, in two n x d buffers made
    once per call: ``direction`` = anchor - z, and ``mixed``, which holds h,
    then alpha, then the mixed point, through the same operations in the same
    order as the rule's plain expression, so the bits match it.
    """
    base = np.argmax(probs, axis=1)
    grads = _probs_minus_onehot(probs) @ clf.weights  # d-loss/d-z at each row
    direction = np.empty_like(U)
    mixed = np.empty_like(U)
    flips = np.zeros(len(U), dtype=np.int64)
    for anchor in anchors:
        np.subtract(anchor, U, out=direction)
        np.multiply(grads, direction, out=mixed)  # h
        norms = np.sqrt(_sq_norms(mixed))
        mixed *= eps
        mixed /= np.maximum(norms, 1e-300)[:, None]
        mixed[~(norms > 0)] = 0.0  # alpha
        mixed *= direction
        mixed += U
        flips += np.argmax(predict_proba(clf, mixed), axis=1) != base
    return flips


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
    flips = _anchor_flips(clf, U, probs, anchors, eps)

    entropy = score_entropy(probs)
    cand_mask = flips > 0
    cands = unlabeled[cand_mask]
    cand_order = cands[np.lexsort((cands, -entropy[cand_mask], -flips[cand_mask].astype(np.float64)))]
    rest_order = _score_order(entropy[~cand_mask], unlabeled[~cand_mask])
    return _cluster_pick(X, cands, np.concatenate([cand_order, rest_order]), b_eff, seed)


def _typicality_all(features: np.ndarray, k: int) -> np.ndarray:
    """Each point's inverse mean distance to its k nearest others, 1 <= k < n; 0 if alone."""
    if features.shape[0] <= 1:
        return np.zeros(features.shape[0])
    _, dist = knn(features, k)
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
    if knn_k < 1:
        raise ValueError(f"knn_k={knn_k} must be at least 1")
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
    purity_threshold: float = PROBCOVER_PURITY,
    seed: int = 0,
) -> float:
    """Largest ball radius on a log grid whose pseudo-label purity clears the threshold.

    Pseudo-labels come from kmeans(features, num_classes, seed); the grid is 64
    log-spaced radii between the 1st and 99th percentile of 2000 sampled
    pairwise distances (pairs from default_rng(seed)).
    """
    if not 0.0 <= purity_threshold <= 1.0:
        raise ValueError(f"purity_threshold={purity_threshold} must be in [0, 1]")
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"estimate_delta needs at least 2 points, got {n}")
    pseudo = kmeans(X, min(num_classes, n), seed).assignments

    rng = np.random.default_rng(seed)
    left = rng.integers(0, n, 2000)
    right = rng.integers(0, n - 1, 2000)
    right = np.where(right >= left, right + 1, right)  # pair without i == j
    diff = X[left] - X[right]
    sample = np.sqrt(_sq_norms(diff))
    lo = max(float(np.percentile(sample, 1)), 1e-12)
    hi = max(float(np.percentile(sample, 99)), lo * (1 + 1e-9))
    grid = np.geomspace(lo, hi, 64)

    # a point stays pure at radius delta iff no differently-labeled point
    # sits within delta, so one pass over nearest cross-label distances
    # answers every grid value
    nearest_cross = _nearest_other_label_dist(X, pseudo)
    purity = (nearest_cross[None, :] > grid[:, None]).mean(axis=1)
    passing = np.flatnonzero(purity >= purity_threshold)
    return float(grid[passing[-1]] if passing.size else grid[0])


class ProbCoverState(NamedTuple):
    """A probcover cell's delta-ball graph over its sorted train pool, from ``prepare``."""

    pool: np.ndarray  # the sorted train pool; graph rows and columns are its positions
    delta: float
    balls: object  # CSR: row i holds the positions within delta of pool[i]
    holders: object  # CSR transpose of balls: row j holds the balls that hold position j


def _ball_state(points: np.ndarray, pool: np.ndarray, delta: float) -> ProbCoverState:
    """The delta-ball graph and its transpose over ``points``, the rows of ``pool``."""
    if not delta >= 0:
        raise ValueError(f"probcover delta must be a non-negative number, got {delta}")
    balls = _ball_graph(points, delta)
    return ProbCoverState(pool, delta, balls, balls.T.tocsr())


def _greedy_cover(state: ProbCoverState, is_labeled: np.ndarray, b: int) -> np.ndarray:
    """Greedy max-coverage over the state's balls, seeded by labeled coverage.

    Each ball's count of uncovered points is kept up to date: when a pick
    covers new points, every ball that holds one of them loses one.
    """
    balls, holders = state.balls, state.holders
    gain = np.diff(balls.indptr).astype(np.int64)
    covered = np.zeros(len(state.pool), dtype=bool)

    def cover(centers):
        new = np.unique(balls[centers].indices)
        new = new[~covered[new]]
        covered[new] = True
        gain[:] -= np.bincount(holders[new].indices, minlength=len(state.pool))

    cover(np.flatnonzero(is_labeled))
    cand = ~is_labeled
    picks = []
    for _ in range(b):
        pick = int(np.argmax(np.where(cand, gain, -1)))
        picks.append(pick)
        cover([pick])
        cand[pick] = False
    return state.pool[np.asarray(picks, dtype=np.int64)]


def query_probcover(features: np.ndarray, labeled, unlabeled, b: int, delta: Optional[float]) -> np.ndarray:
    """Greedy max-coverage over the delta-ball graph of the train pool, built here."""
    if delta is None:
        raise ValueError("probcover needs delta: pass estimate_delta(...) of the train rows being labeled")
    pool, is_labeled = _train_pool(labeled, unlabeled)
    state = _ball_state(np.asarray(features, dtype=np.float64)[pool], pool, delta)
    return _greedy_cover(state, is_labeled, min(b, len(unlabeled)))


def dropquery(
    features: np.ndarray,
    clf: LinearClassifier,
    unlabeled,
    b: int,
    m: int = 3,
    seed: int = 0,
    literal: bool = False,
) -> QueryResult:
    """Consistency-under-dropout query.

    The base prediction uses no dropout; ``m`` passes at ``clf.dropout_rho``
    (masks seeded with ``seed`` through mc_dropout_proba) vote against it. A
    point joins the candidate set when more than half of the passes disagree
    with the base prediction. ``literal=True`` flips the predicate to keep the
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
    mc = mc_dropout_proba(clf, U, m, seed)
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
    state: object  # the cell's ``prepare`` result


# kind -> scorer of its (n, C) class probabilities; only these kinds read
# inference dropout, since bald and powerbald score their own MC_SAMPLES passes
_PROB_SCORERS = {"uncertainty": score_uncertainty, "entropy": score_entropy, "margins": score_margin}


def _scores(spec: QuerySpec, r: _Round) -> np.ndarray:
    """Acquisition scores of the unlabeled points, higher = query first."""
    U = r.features[r.unlabeled]
    if spec.kind not in _PROB_SCORERS:
        return score_bald(mc_dropout_passes(r.clf, U, MC_SAMPLES, derive_seed(r.seed, "mc")))
    if spec.inference_dropout:
        probs = mc_dropout_proba(r.clf, U, 1, derive_seed(r.seed, "inference-dropout"))[0]
    else:
        probs = predict_proba(r.clf, U)
    return _PROB_SCORERS[spec.kind](probs)


def _probcover(spec: QuerySpec, r: _Round) -> np.ndarray:
    """The greedy cover on the cell's prepared graph, which must span this round's pool."""
    if r.state is None:
        raise ValueError(
            "probcover needs state=prepare(spec, features, pool, num_classes, seed), "
            "which runs estimate_delta over the train rows being labeled"
        )
    pool, is_labeled = _train_pool(r.labeled, r.unlabeled)
    if not np.array_equal(pool, r.state.pool):
        raise ValueError("probcover state was prepared over another train pool than labeled | unlabeled")
    return _greedy_cover(r.state, is_labeled, r.b)


def _ranked(spec: QuerySpec, r: _Round) -> np.ndarray:
    """Score-ranked kinds: the top B, or the diversified top SHORTLIST_FACTOR*B."""
    scores = _scores(spec, r)
    if spec.diversify:
        return diversify(scores, r.features, r.unlabeled, r.b, seed=derive_seed(r.seed, "diversify"))
    return select_topb(scores, r.unlabeled, r.b)


# kind -> fn(spec, round) returning the selected indices or a QueryResult
_STRATEGIES = {
    "random": lambda spec, r: random_init(r.unlabeled, r.b, r.seed),
    "uncertainty": _ranked,
    "entropy": _ranked,
    "margins": _ranked,
    "bald": _ranked,
    "powerbald": lambda spec, r: query_powerbald(
        _scores(spec, r), r.unlabeled, r.b, POWER_BETA, derive_rng(r.seed, "power")
    ),
    "coreset": lambda spec, r: query_coreset(r.features, r.labeled, r.unlabeled, r.b),
    "badge": lambda spec, r: query_badge(
        r.features, r.clf, r.unlabeled, r.b, derive_rng(r.seed, "badge")
    ),
    "alfamix": lambda spec, r: query_alfamix(
        r.features, r.clf, r.labeled, r.labeled_labels, r.unlabeled, r.b, ALFAMIX_EPS_SCALE, r.seed
    ),
    "typiclust": lambda spec, r: query_typiclust(
        r.features, r.labeled, r.unlabeled, r.b, TYPICLUST_MAX_CLUSTERS, TYPICLUST_KNN, r.seed
    ),
    "probcover": _probcover,
    "dropquery": lambda spec, r: dropquery(
        r.features, r.clf, r.unlabeled, r.b, spec.dq_m, r.seed, spec.dq_literal
    ),
}

STRATEGY_KINDS = tuple(_STRATEGIES)


def prepare(spec: QuerySpec, features: np.ndarray, pool, num_classes: int, seed: int):
    """The state ``query`` reads for ``spec``'s kind over the train ``pool``
    (labeled and unlabeled together) in every round of a cell, or None.

    Only probcover has one: its delta-ball graph, at the delta that
    ``estimate_delta`` picks on the pool's rows, which are gathered once.
    """
    if spec.kind != "probcover":
        return None
    pool = np.sort(np.asarray(pool, dtype=np.int64))
    points = np.asarray(np.asarray(features)[pool], dtype=np.float64)
    delta = estimate_delta(points, num_classes, seed=derive_seed(seed, "probcover/delta"))
    return _ball_state(points, pool, delta)


def query(
    spec: QuerySpec,
    features: np.ndarray,
    clf: LinearClassifier,
    labeled,
    labeled_labels,
    unlabeled,
    b: int,
    seed: int,
    state=None,
) -> QueryResult:
    """Run one acquisition round for the given spec. Returns min(B, |unlabeled|) indices.

    ``state`` is ``prepare``'s result over the train pool labeled | unlabeled;
    probcover needs it.
    """
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    b_eff = min(b, len(unlabeled))
    if b_eff == 0:
        return QueryResult(np.empty(0, dtype=np.int64))
    r = _Round(
        np.asarray(features, dtype=np.float64), clf, labeled, labeled_labels, unlabeled, b_eff, seed, state
    )
    out = _STRATEGIES[spec.kind](spec, r)
    return out if isinstance(out, QueryResult) else QueryResult(out)
