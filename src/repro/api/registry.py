"""The sketch-spec registry: one source of truth for building sketches.

Before this module, every driver rolled its own factories: the CLI had
hand-written per-subcommand builders, benchmarks carried parallel
lambda tables, and constructor signatures disagreed about ``rng`` vs
``seed`` vs ``sampling_seed``.  The registry replaces all of that:

* :class:`Params` — the uniform parameter record (``n``, ``eps``,
  ``delta``, ``alpha``, ``seed``).  One **root seed** deterministically
  spawns every structure's generator (:func:`rng_for`), so two builds
  of the same spec from the same params are value-identical — which is
  exactly what session merges and snapshot/restore require;
* :class:`SketchSpec` — ``name -> factory`` plus an optional uniform
  ``query`` hook (the headline estimate
  :meth:`repro.api.session.StreamSession.query` dispatches to).  What a
  built sketch can do (batch, plan, merge) is read off the instance by
  the :mod:`repro.batch` protocol checks, never declared here;
* ``build(params, shard_index)`` — every index rebuilds the same hash
  seeds from the root seed while sampling structures get a per-index
  ``sampling_seed`` (index 0 keeps the single-replay streams), so
  sibling sessions (``StreamSession(node=...)``) merge and still
  sample independently.

>>> spec = get_spec("countmin")
>>> sketch = spec.build(Params(n=64, seed=3))
>>> sketch.update(5, 2); sketch.query(5)
2
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.batch import is_integer
from repro.core.csss import CSSS, CSSSWithTailEstimate
from repro.core.heavy_hitters import AlphaHeavyHitters
from repro.core.inner_product import AlphaInnerProduct, AlphaInnerProductSketch
from repro.core.l0_estimation import (
    AlphaConstL0Estimator,
    AlphaL0Estimator,
    AlphaRoughL0Estimate,
)
from repro.core.l1_estimation import (
    AlphaL1EstimatorGeneral,
    AlphaL1EstimatorStrict,
)
from repro.core.l1_sampler import AlphaL1MultiSampler, AlphaL1Sampler
from repro.core.l2_heavy_hitters import AlphaL2HeavyHitters
from repro.core.sampling import SampledFrequencies
from repro.core.support_sampler import AlphaSupportSampler
from repro.sketches.ams import AMSSketch
from repro.sketches.cauchy import CauchyL1Sketch
from repro.sketches.countmin import CountMin
from repro.sketches.countsketch import CountSketch
from repro.sketches.knw_l0 import KNWL0Estimator, RoughL0Estimator
from repro.sketches.misra_gries import MisraGries
from repro.sketches.sparse_recovery import SparseRecovery
from repro.sketches.l1_sampler_turnstile import TurnstileL1Sampler
from repro.sketches.support_sampler_turnstile import TurnstileSupportSampler
from repro.streams.model import FrequencyVector


def rng_for(seed: int, label: str) -> np.random.Generator:
    """The root-seed spawn policy: a deterministic per-structure
    generator from ``(seed, label)``.

    The label bytes join the seed in the ``SeedSequence`` entropy, so
    different structures built from one root seed draw independent
    randomness, while the same (seed, label) pair always rebuilds the
    identical generator — session merges and snapshot restores depend
    on that.

    >>> a = rng_for(7, "countmin").integers(1 << 30)
    >>> b = rng_for(7, "countmin").integers(1 << 30)
    >>> c = rng_for(7, "countsketch").integers(1 << 30)
    >>> bool(a == b), bool(a == c)
    (True, False)
    """
    return np.random.default_rng([int(seed), *label.encode("utf-8")])


@dataclass(frozen=True)
class Params:
    """Uniform sketch parameters, shared by every registry factory.

    ``n`` — universe size; ``eps`` — accuracy; ``delta`` — failure
    probability (drives table depths as ``ceil(log2(1/delta))``);
    ``alpha`` — the stream's bounded-deletion parameter; ``seed`` —
    the root seed every structure's generator is spawned from.

    >>> Params(n=256, seed=3).depth
    5
    """

    n: int = 1 << 12
    eps: float = 1 / 16
    delta: float = 1 / 32
    alpha: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        for field in ("n", "seed"):
            value = getattr(self, field)
            if not is_integer(value):
                raise TypeError(f"{field} must be an integer, not {value!r}")
        if self.n < 1:
            raise ValueError("universe size must be positive")
        if not 0 < self.eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def depth(self) -> int:
        """Rows for w.h.p. median tricks: ``ceil(log2(1/delta))``."""
        return max(2, int(np.ceil(np.log2(1.0 / self.delta))))

    @property
    def k(self) -> int:
        """The sparsity / heavy-hitter count ``ceil(1/eps)``."""
        return max(1, int(np.ceil(1.0 / self.eps)))

    def rng(self, label: str) -> np.random.Generator:
        """This param set's generator for the structure ``label``."""
        return rng_for(self.seed, label)

    def sampling_seed(self, shard_index: int):
        """The per-shard sampling reseed: shard 0 keeps the
        single-replay sampling streams (``None``), every other shard
        reroots them — how sibling sessions (one ``node`` index each)
        sample independently.
        """
        return (self.seed, shard_index) if shard_index else None

    def replace(self, **changes) -> "Params":
        """A copy with the given fields replaced (dataclass semantics).

        >>> Params().replace(eps=0.5).eps
        0.5
        """
        return dataclasses.replace(self, **changes)


#: Field names of :class:`Params` (used to split keyword overrides
#: between the param record and constructor pass-throughs).
PARAM_FIELDS = frozenset(f.name for f in dataclasses.fields(Params))


#: Probe parameters: small enough that deriving a per-spec property from
#: an instance (see :meth:`SketchSpec.node_sensitive`) is effectively free.
_PROBE_PARAMS = Params(n=64, eps=0.25, delta=0.25, alpha=2.0, seed=0)


@dataclass(frozen=True)
class SketchSpec:
    """One registered sketch: factory, class, query hook.

    ``builder(params, shard_index, **overrides)`` constructs the
    structure; ``overrides`` pass straight through to the constructor
    (benchmarks pin explicit widths/depths this way).  ``query`` maps a
    built sketch to its headline estimate — the uniform answer surface
    ``StreamSession.query`` and the CLI report through; ``None`` marks
    point-query structures whose answers need arguments.
    """

    name: str
    cls: type
    summary: str
    builder: Callable[..., Any]
    query: Callable[[Any], Any] | None = None

    def build(self, params: Params | None = None, shard_index: int = 0,
              **overrides) -> Any:
        """Construct the sketch for ``params`` (defaults apply)."""
        params = params if params is not None else Params()
        return self.builder(params, shard_index, **overrides)

    def node_sensitive(self) -> bool:
        """Whether building at different shard/node indices yields
        different initial state (cached per spec).

        True marks sampling-seeded structures (CSSS, heavy hitters,
        general L1, ...): same-params siblings at the *same* node index
        draw identical sampling streams, so their sampling errors are
        correlated and do not cancel under merge.  Derived empirically
        — two probe builds at shard 0 and 1, compared via their
        snapshots — so specs never have to declare the flag by hand.
        """
        return _node_sensitive(self.name)

    def state_attributes(self) -> frozenset[str]:
        """The attribute names a fresh build holds (cached per spec).

        The snapshot-completeness lint rule makes every state attribute
        a constructor assignment, so one probe build lists them all;
        :meth:`repro.api.session.StreamSession.restore` refuses a
        tracked consumer that lacks any of them.
        """
        return _state_attributes(self.name)


REGISTRY: dict[str, SketchSpec] = {}


def _register(name: str, cls: type, summary: str,
              query: Callable[[Any], Any] | None = None):
    def decorate(builder: Callable[..., Any]) -> Callable[..., Any]:
        if name in REGISTRY:
            raise ValueError(f"duplicate spec {name!r}")
        REGISTRY[name] = SketchSpec(
            name=name, cls=cls, summary=summary, builder=builder,
            query=query,
        )
        return builder
    return decorate


def get_spec(name: str) -> SketchSpec:
    """Look up a spec; raises ``KeyError`` naming the known specs."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown sketch spec {name!r}; known: {sorted(REGISTRY)}"
        ) from None


def specs() -> list[SketchSpec]:
    """Every registered spec, sorted by name."""
    return [REGISTRY[name] for name in sorted(REGISTRY)]


@functools.lru_cache(maxsize=None)
def _node_sensitive(name: str) -> bool:
    # Imported here: serialize does not import the registry, so the
    # probe cannot create a cycle.
    from repro.api.serialize import payload_equal, snapshot

    spec = REGISTRY[name]
    return not payload_equal(
        snapshot(spec.build(_PROBE_PARAMS, shard_index=0)),
        snapshot(spec.build(_PROBE_PARAMS, shard_index=1)),
    )


@functools.lru_cache(maxsize=None)
def _state_attributes(name: str) -> frozenset[str]:
    return frozenset(vars(REGISTRY[name].build(_PROBE_PARAMS)))


def build(name: str, params: Params | None = None, shard_index: int = 0,
          **overrides) -> Any:
    """Module-level :meth:`SketchSpec.build` (picklable by reference).

    >>> build("frequency_vector", Params(n=8)).n
    8
    """
    return get_spec(name).build(params, shard_index, **overrides)


# --------------------------------------------------------------------------
# The specs.  Builders derive constructor arguments from Params and let
# ``overrides`` win; every generator comes from the root-seed policy.
# --------------------------------------------------------------------------


@_register("frequency_vector", FrequencyVector,
           "exact dense ground truth f = I - D",
           query=lambda s: s.l1())
def _build_frequency_vector(p: Params, shard: int, **kw) -> FrequencyVector:
    return FrequencyVector(kw.pop("n", p.n), **kw)


@_register("countsketch", CountSketch,
           "CountSketch baseline (Lemma 2): d x 6k signed table",
           query=lambda s: s.l2_estimate())
def _build_countsketch(p: Params, shard: int, **kw) -> CountSketch:
    kw.setdefault("width", 6 * p.k)
    kw.setdefault("depth", p.depth)
    return CountSketch(p.n, rng=p.rng("countsketch"), **kw)


@_register("countmin", CountMin,
           "CountMin baseline: strict-turnstile point queries")
def _build_countmin(p: Params, shard: int, **kw) -> CountMin:
    kw.setdefault("width", max(1, int(np.ceil(2.0 / p.eps))))
    kw.setdefault("depth", p.depth)
    return CountMin(p.n, rng=p.rng("countmin"), **kw)


@_register("ams", AMSSketch, "AMS F2 / L2 norm estimator",
           query=lambda s: float(np.sqrt(s.f2_estimate())))
def _build_ams(p: Params, shard: int, **kw) -> AMSSketch:
    kw.setdefault("per_group", max(1, int(np.ceil(1.0 / p.eps**2))))
    kw.setdefault("groups", p.depth)
    return AMSSketch(p.n, rng=p.rng("ams"), **kw)


@_register("cauchy", CauchyL1Sketch,
           "Indyk Cauchy-projection L1 estimator (Fact 1)",
           query=lambda s: s.estimate())
def _build_cauchy(p: Params, shard: int, **kw) -> CauchyL1Sketch:
    kw.setdefault("eps", p.eps)
    return CauchyL1Sketch(p.n, rng=p.rng("cauchy"), **kw)


@_register("misra_gries", MisraGries,
           "insertion-only eps-heavy hitters (the alpha = 1 endpoint)",
           query=lambda s: s.heavy_hitters())
def _build_misra_gries(p: Params, shard: int, **kw) -> MisraGries:
    kw.setdefault("eps", p.eps)
    return MisraGries(p.n, **kw)


@_register("sparse_recovery", SparseRecovery,
           "exact s-sparse vector recovery")
def _build_sparse_recovery(p: Params, shard: int, **kw) -> SparseRecovery:
    kw.setdefault("s", p.k)
    return SparseRecovery(p.n, rng=p.rng("sparse_recovery"), **kw)


@_register("knw_l0", KNWL0Estimator,
           "KNW turnstile (1 +/- eps) L0 estimator baseline",
           query=lambda s: s.estimate())
def _build_knw_l0(p: Params, shard: int, **kw) -> KNWL0Estimator:
    kw.setdefault("eps", p.eps)
    return KNWL0Estimator(p.n, rng=p.rng("knw_l0"), **kw)


@_register("rough_l0", RoughL0Estimator,
           "constant-factor turnstile L0 baseline",
           query=lambda s: s.estimate())
def _build_rough_l0(p: Params, shard: int, **kw) -> RoughL0Estimator:
    return RoughL0Estimator(p.n, rng=p.rng("rough_l0"), **kw)


@_register("turnstile_l1_sampler", TurnstileL1Sampler,
           "unbounded-deletion L1 sampler baseline",
           query=lambda s: s.sample())
def _build_turnstile_l1_sampler(p: Params, shard: int,
                                **kw) -> TurnstileL1Sampler:
    kw.setdefault("eps", p.eps)
    return TurnstileL1Sampler(p.n, rng=p.rng("turnstile_l1_sampler"), **kw)


@_register("turnstile_support_sampler", TurnstileSupportSampler,
           "unbounded-deletion support sampler baseline",
           query=lambda s: s.sample())
def _build_turnstile_support_sampler(p: Params, shard: int,
                                     **kw) -> TurnstileSupportSampler:
    kw.setdefault("k", p.k)
    return TurnstileSupportSampler(
        p.n, rng=p.rng("turnstile_support_sampler"), **kw
    )


@_register("csss", CSSS,
           "CountSketch Sampling Simulator (Theorem 1): point queries")
def _build_csss(p: Params, shard: int, **kw) -> CSSS:
    kw.setdefault("k", max(2, p.k))
    kw.setdefault("eps", p.eps)
    kw.setdefault("alpha", p.alpha)
    kw.setdefault("sampling_seed", p.sampling_seed(shard))
    return CSSS(p.n, rng=p.rng("csss"), **kw)


@_register("csss_tail", CSSSWithTailEstimate,
           "CSSS with shadow tail-error estimate")
def _build_csss_tail(p: Params, shard: int, **kw) -> CSSSWithTailEstimate:
    kw.setdefault("k", max(2, p.k))
    kw.setdefault("eps", p.eps)
    kw.setdefault("alpha", p.alpha)
    kw.setdefault("sampling_seed", p.sampling_seed(shard))
    return CSSSWithTailEstimate(p.n, rng=p.rng("csss_tail"), **kw)


@_register("heavy_hitters", AlphaHeavyHitters,
           "L1 eps-heavy hitters, strict turnstile (Theorem 4)",
           query=lambda s: s.heavy_hitters())
def _build_heavy_hitters(p: Params, shard: int, **kw) -> AlphaHeavyHitters:
    kw.setdefault("eps", p.eps)
    kw.setdefault("alpha", p.alpha)
    kw.setdefault("strict_turnstile", True)
    kw.setdefault("sampling_seed", p.sampling_seed(shard))
    return AlphaHeavyHitters(p.n, rng=p.rng("heavy_hitters"), **kw)


@_register("heavy_hitters_general", AlphaHeavyHitters,
           "L1 eps-heavy hitters, general turnstile (Theorem 3)",
           query=lambda s: s.heavy_hitters())
def _build_heavy_hitters_general(p: Params, shard: int,
                                 **kw) -> AlphaHeavyHitters:
    kw.setdefault("eps", p.eps)
    kw.setdefault("alpha", p.alpha)
    kw.setdefault("strict_turnstile", False)
    kw.setdefault("sampling_seed", p.sampling_seed(shard))
    return AlphaHeavyHitters(p.n, rng=p.rng("heavy_hitters_general"), **kw)


@_register("l2_heavy_hitters", AlphaL2HeavyHitters,
           "L2 eps-heavy hitters (Appendix A)",
           query=lambda s: s.heavy_hitters())
def _build_l2_heavy_hitters(p: Params, shard: int,
                            **kw) -> AlphaL2HeavyHitters:
    kw.setdefault("eps", p.eps)
    kw.setdefault("alpha", p.alpha)
    return AlphaL2HeavyHitters(p.n, rng=p.rng("l2_heavy_hitters"), **kw)


@_register("alpha_l0", AlphaL0Estimator,
           "(1 +/- eps) L0 estimation (Figure 7 / Theorem 6)",
           query=lambda s: s.estimate())
def _build_alpha_l0(p: Params, shard: int, **kw) -> AlphaL0Estimator:
    kw.setdefault("eps", p.eps)
    kw.setdefault("alpha", p.alpha)
    return AlphaL0Estimator(p.n, rng=p.rng("alpha_l0"), **kw)


@_register("alpha_const_l0", AlphaConstL0Estimator,
           "O(1)-factor L0 with O(log alpha) live levels (Lemma 20)",
           query=lambda s: s.estimate())
def _build_alpha_const_l0(p: Params, shard: int,
                          **kw) -> AlphaConstL0Estimator:
    kw.setdefault("alpha", p.alpha)
    return AlphaConstL0Estimator(p.n, rng=p.rng("alpha_const_l0"), **kw)


@_register("alpha_rough_l0", AlphaRoughL0Estimate,
           "KMV rough F0 tracker steering the L0 windows",
           query=lambda s: s.estimate())
def _build_alpha_rough_l0(p: Params, shard: int,
                          **kw) -> AlphaRoughL0Estimate:
    return AlphaRoughL0Estimate(p.n, rng=p.rng("alpha_rough_l0"), **kw)


@_register("l1_strict", AlphaL1EstimatorStrict,
           "strict-turnstile L1 estimation in O(log(alpha/eps)) bits "
           "(Figure 4)",
           query=lambda s: s.estimate())
def _build_l1_strict(p: Params, shard: int, **kw) -> AlphaL1EstimatorStrict:
    kw.setdefault("alpha", p.alpha)
    kw.setdefault("eps", p.eps)
    # No shared hashes here, so each shard gets a fully independent
    # sampling generator (shard 0 keeps the single-replay stream) —
    # shard interval estimates sum, and independent errors cancel.
    label = "l1_strict" if not shard else f"l1_strict.shard{shard}"
    return AlphaL1EstimatorStrict(rng=p.rng(label), **kw)


@_register("l1_general", AlphaL1EstimatorGeneral,
           "general-turnstile L1 estimation (Theorem 8)",
           query=lambda s: s.estimate())
def _build_l1_general(p: Params, shard: int,
                      **kw) -> AlphaL1EstimatorGeneral:
    kw.setdefault("eps", p.eps)
    kw.setdefault("alpha", p.alpha)
    kw.setdefault("sampling_seed", p.sampling_seed(shard))
    return AlphaL1EstimatorGeneral(p.n, rng=p.rng("l1_general"), **kw)


@_register("l1_sampler", AlphaL1Sampler,
           "single-attempt alpha-property L1 sampler (Section 4)",
           query=lambda s: s.sample())
def _build_l1_sampler(p: Params, shard: int, **kw) -> AlphaL1Sampler:
    kw.setdefault("eps", p.eps)
    kw.setdefault("alpha", p.alpha)
    kw.setdefault("sampling_seed", p.sampling_seed(shard))
    return AlphaL1Sampler(p.n, rng=p.rng("l1_sampler"), **kw)


@_register("l1_multi_sampler", AlphaL1MultiSampler,
           "amplified L1 sampler: first non-FAIL of O(1/eps log 1/delta) "
           "attempts (Theorem 5)",
           query=lambda s: s.sample())
def _build_l1_multi_sampler(p: Params, shard: int,
                            **kw) -> AlphaL1MultiSampler:
    kw.setdefault("eps", p.eps)
    kw.setdefault("alpha", p.alpha)
    kw.setdefault("delta", p.delta)
    return AlphaL1MultiSampler(p.n, rng=p.rng("l1_multi_sampler"), **kw)


@_register("support_sampler", AlphaSupportSampler,
           "k-support sampling (Figure 8; order-sensitive, no merge)",
           query=lambda s: s.sample())
def _build_support_sampler(p: Params, shard: int,
                           **kw) -> AlphaSupportSampler:
    kw.setdefault("k", p.k)
    kw.setdefault("alpha", p.alpha)
    return AlphaSupportSampler(p.n, rng=p.rng("support_sampler"), **kw)


@_register("inner_product", AlphaInnerProductSketch,
           "one side of the Theorem 2 inner-product pair")
def _build_inner_product(p: Params, shard: int,
                         **kw) -> AlphaInnerProductSketch:
    ctx = AlphaInnerProduct(
        p.n, eps=kw.pop("eps", p.eps), alpha=kw.pop("alpha", p.alpha),
        rng=p.rng("inner_product"), **kw,
    )
    return ctx.make_sketch()


@_register("sampled_frequencies", SampledFrequencies,
           "budgeted uniform frequency sample (CSSS budget engine)",
           query=lambda s: s.sum_estimate())
def _build_sampled_frequencies(p: Params, shard: int,
                               **kw) -> SampledFrequencies:
    kw.setdefault("budget", max(64, 4 * p.k * p.depth))
    return SampledFrequencies(rng=p.rng("sampled_frequencies"), **kw)
