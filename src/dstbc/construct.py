"""Distributed STBC construction for amplify-and-forward relay networks.

A code is built from a COD W (T' x N', K' real symbols) and parameters
(N, lam, n) with N = L*N' and lam <= L. The design is a grid of
(n + L - 1) x L blocks; block (r, c) holds a copy of W over a shifted set
of global symbols when 0 <= r - c <= n - 1 and is zero otherwise, so the
code consists of n staggered diagonal layers. Decoding groups are the
lam-element runs of consecutive symbols; the rotation applied inside each
group's signal set is what makes every layer block full rank for any
nonzero group difference.

Every column of a built design depends on a common vector z of complex
super-symbols x_p +/- i*x_q either only through z or only through its
conjugate, which is what lets single-antenna relays synthesize the code:
relay j applies a fixed matrix B_j to its received signal (or to the
conjugate of it, for the columns in S).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .constellation import SignalSet, modulation_set
from .design import (
    CodProfile,
    LinearDesign,
    cod_alamouti,
    cod_trivial,
    design_from_dict,
    design_to_dict,
    independent_weights,
    require,
)

__all__ = [
    "GroupingScheme",
    "ConjugateLinearForm",
    "BuildParams",
    "DstbcCode",
    "NotConjugateLinear",
    "contiguous_grouping",
    "build",
    "extract_relay_form",
    "rate_cspcu",
    "bits_per_channel_use",
    "preset",
    "preset_names",
    "drop_relays",
    "from_design",
    "default_group_set",
    "code_to_dict",
    "code_from_dict",
    "resolve_code",
]

_SCAN_TOL = 1e-9


class NotConjugateLinear(ValueError):
    """The design cannot be written with uniformly (un)conjugated columns."""


@dataclass(frozen=True)
class GroupingScheme:
    """Partition of the symbol indices 0..K-1 into ordered decoding groups."""

    groups: tuple

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        flat = [i for g in groups for i in g]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("groups must partition 0..K-1")
        if any(list(g) != sorted(g) for g in groups):
            raise ValueError("indices within a group must be ascending")
        object.__setattr__(self, "groups", groups)

    @property
    def g(self) -> int:
        return len(self.groups)

    @property
    def K(self) -> int:
        return sum(len(g) for g in self.groups)

    def check_sets(self, sets) -> tuple:
        """sets as a tuple, after checking there is one per group, of its size."""
        sets = tuple(sets)
        if len(sets) != self.g:
            raise ValueError("need one signal set per group")
        for s, grp in zip(sets, self.groups):
            if s.dim != len(grp):
                raise ValueError("signal set dimension must match group size")
        return sets

    def complement(self, k: int) -> tuple:
        """Indices outside group k, ascending."""
        own = set(self.groups[k])
        return tuple(i for i in range(self.K) if i not in own)

    def tail(self, k: int) -> tuple:
        """Indices of all groups after k, ascending."""
        idx = [i for g in self.groups[k + 1:] for i in g]
        return tuple(sorted(idx))


def contiguous_grouping(lam: int, kp: int, n: int) -> GroupingScheme:
    """n*kp groups of lam consecutive symbols each."""
    if min(lam, kp, n) < 1:
        raise ValueError("lam, kp, n must all be >= 1")
    g = n * kp
    return GroupingScheme(tuple(tuple(range(k * lam, (k + 1) * lam)) for k in range(g)))


@dataclass(frozen=True)
class ConjugateLinearForm:
    """Source/relay factorization of a design.

    z = V x is the length-T1 complex vector the source broadcasts, one
    super-symbol per (p, q) pair of the pairing it was scanned with; column j
    of the design equals B[j] @ z for j not in S and B[j].conj() @ z.conj()
    for j in S.
    """

    pairing: tuple
    V: np.ndarray
    B: tuple
    S: frozenset

    def __post_init__(self):
        object.__setattr__(self, "pairing", tuple((int(p), int(q)) for p, q in self.pairing))
        v = np.asarray(self.V, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "V", v)
        bs = tuple(np.asarray(b, dtype=complex) for b in self.B)
        for b in bs:
            b.setflags(write=False)
        object.__setattr__(self, "B", bs)
        object.__setattr__(self, "S", frozenset(int(j) for j in self.S))

    @property
    def T1(self) -> int:
        return len(self.pairing)

    def relay_matrix(self, j: int) -> np.ndarray:
        """The matrix the relay actually applies: B_j, conjugated for j in S."""
        return self.B[j].conj() if j in self.S else self.B[j]


@dataclass(frozen=True)
class BuildParams:
    """Construction parameters; present only for codes built from a COD grid."""

    N: int
    Np: int
    Tp: int
    L: int
    lam: int
    n: int
    Kp: int
    cod: CodProfile


@dataclass(frozen=True)
class DstbcCode:
    design: LinearDesign
    grouping: GroupingScheme
    group_sets: tuple | None = None
    relay_form: ConjugateLinearForm | None = None
    params: BuildParams | None = None

    def __post_init__(self):
        if self.grouping.K != self.design.K:
            raise ValueError("grouping does not cover the design's symbols")
        if self.group_sets is not None:
            object.__setattr__(self, "group_sets", self.grouping.check_sets(self.group_sets))

    @property
    def N(self) -> int:
        return self.design.N

    @property
    def K(self) -> int:
        return self.design.K

    @property
    def T2(self) -> int:
        return self.design.T

    @property
    def T1(self) -> int:
        if self.relay_form is None:
            raise ValueError("code has no relay form")
        return self.relay_form.T1

    @property
    def g(self) -> int:
        return self.grouping.g

    def signal_sets(self) -> tuple:
        """group_sets, refused by name when the code has none."""
        require(self.group_sets is not None, "modulation",
                "be given for groups with no default alphabet (over 2 symbols)", None)
        return self.group_sets

    def with_sets(self, sets) -> "DstbcCode":
        if isinstance(sets, SignalSet):
            sets = (sets,) * self.grouping.g
        return replace(self, group_sets=tuple(sets))


def default_group_set(lam: int) -> SignalSet | None:
    """Smallest standard alphabet for a group of lam real symbols, if any."""
    return modulation_set(("pam2", "qam4")[lam - 1]) if lam in (1, 2) else None


def _consecutive_pairs(params: BuildParams) -> list:
    """Real-symbol index pairs forming the complex variables of each block.

    Block (m, ell) carries the COD in globals lam*Kp*m + ell + lam*i for
    i = 0..Kp-1; its complex variables pair consecutive COD symbols.
    """
    lam, kp, n = params.lam, params.Kp, params.n
    if kp % 2:
        return []
    pairs = []
    for m in range(n):
        for ell in range(lam):
            base = lam * kp * m + ell
            for t in range(kp // 2):
                pairs.append((base + lam * 2 * t, base + lam * (2 * t + 1)))
    return pairs


def _checked_pairing(pairing, k: int) -> tuple:
    pairing = tuple((int(p), int(q)) for p, q in pairing)
    if sorted([i for pq in pairing for i in pq]) != list(range(k)):
        raise ValueError("pairing must cover each symbol exactly once")
    return pairing


def extract_relay_form(design: LinearDesign, pairing=None) -> ConjugateLinearForm:
    """Factor a conjugate-linear design into (V, {B_j}, S).

    pairing lists (p, q) index pairs making up the complex super-symbols;
    default is the identity pairing (0,1), (2,3), ... Each design column
    must depend on the super-symbols either all unconjugated or all
    conjugated; orientation of each super-symbol (x_p + i x_q vs its
    conjugate) is resolved so that the lowest-indexed column of each
    connected component is unconjugated.
    """
    if pairing is None:
        if design.K % 2:
            raise NotConjugateLinear("odd symbol count admits no pairing")
        pairing = [(2 * t, 2 * t + 1) for t in range(design.K // 2)]
    pairing = _checked_pairing(pairing, design.K)

    w = design.weights
    n, t1 = design.N, len(pairing)
    ps, qs = [p for p, _ in pairing], [q for _, q in pairing]
    tol = _SCAN_TOL * max(np.abs(w).max(), 1.0)
    # per (column, time, super-symbol): coefficients of z_t and of conj(z_t)
    coef_w = (0.5 * (w[ps] - 1j * w[qs])).transpose(2, 1, 0)
    coef_ws = (0.5 * (w[ps] + 1j * w[qs])).transpose(2, 1, 0)
    sees_w = np.abs(coef_w).max(axis=1) > tol   # (N, t1)
    sees_ws = np.abs(coef_ws).max(axis=1) > tol
    mixed = sees_w & sees_ws
    if mixed.any():
        j, t = np.argwhere(mixed)[0]
        raise NotConjugateLinear(
            f"column {j} mixes super-symbol {t} with its conjugate"
        )

    # 2-colour the bipartite graph of columns (0..N-1) and super-symbols
    # (N..N+t1-1): seeing z_t ties the two labels equal (flip 0), seeing
    # conj(z_t) ties them opposite (flip 1). Each component is searched from
    # its lowest column, labelled unconjugated; unseen super-symbols stay so.
    adj = [[] for _ in range(n + t1)]
    for j, t in np.argwhere(sees_w | sees_ws).tolist():
        flip = int(sees_ws[j, t])
        adj[j].append((n + t, flip))
        adj[n + t].append((j, flip))
    label = [-1] * (n + t1)
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root], stack = 0, [root]
        while stack:
            node = stack.pop()
            for other, flip in adj[node]:
                if label[other] < 0:
                    label[other] = label[node] ^ flip
                    stack.append(other)
                elif label[other] != label[node] ^ flip:
                    raise NotConjugateLinear("inconsistent conjugation pattern")
    conj = np.array(label) == 1
    col_conj, sym_conj = conj[:n], conj[n:]

    v = np.zeros((t1, design.K), dtype=complex)
    v[np.arange(t1), ps] = 1.0
    v[np.arange(t1), qs] = np.where(sym_conj, -1j, 1j)
    bs = np.where((col_conj[:, None] ^ sym_conj)[:, None, :], coef_ws, coef_w)
    bs = np.where(col_conj[:, None, None], bs.conj(), bs)
    return ConjugateLinearForm(pairing, v, tuple(bs), np.nonzero(col_conj)[0])


def _relay_form_or_none(design: LinearDesign, pairing=None):
    try:
        return extract_relay_form(design, pairing)
    except NotConjugateLinear:
        return None


def build(
    N: int,
    cod: CodProfile,
    lam: int,
    n: int,
    group_set: SignalSet | None = None,
) -> DstbcCode:
    """Assemble the layered block design for N relays from the COD.

    group_set is attached to every decoding group; by default a 2-PAM
    (lam = 1) or rotated 4-QAM (lam = 2) alphabet. Larger groups need an
    explicit set (with a full-diversity rotation of matching dimension);
    without one the code is still usable for structure and rate queries.
    """
    require(N >= 1 and N % cod.Np == 0, "N",
            f"be a positive multiple of the COD width {cod.Np}", N)
    L = N // cod.Np
    require(1 <= lam <= L, "lam", f"be in 1..{L}", lam)
    require(n >= 1, "n", "be >= 1", n)
    kp, tp, npp = cod.Kp, cod.Tp, cod.Np
    K = lam * n * kp
    T2 = (n + L - 1) * tp
    weights = np.zeros((K, T2, N), dtype=complex)
    for c in range(L):
        ell = c % lam
        for m in range(n):
            r = m + c
            base = lam * kp * m + ell
            for i in range(kp):
                weights[base + lam * i, r * tp:(r + 1) * tp, c * npp:(c + 1) * npp] \
                    += cod.design.weights[i]
    design = LinearDesign(T2, N, K, weights)
    assert independent_weights(design)
    params = BuildParams(N, npp, tp, L, lam, n, kp, cod)
    grouping = contiguous_grouping(lam, kp, n)
    pairs = _consecutive_pairs(params)
    form = _relay_form_or_none(design, pairs) if pairs else None
    if group_set is None:
        group_set = default_group_set(lam)
    sets = (group_set,) * grouping.g if group_set is not None else None
    return DstbcCode(design, grouping, sets, form, params)


def rate_cspcu(code: DstbcCode) -> Fraction:
    """Complex symbols per channel use across both phases, exact."""
    return Fraction(code.K, 2 * (code.T1 + code.T2))


def bits_per_channel_use(code: DstbcCode) -> Fraction:
    total_bits = sum(s.bits_per_point for s in code.signal_sets())
    return Fraction(total_bits, code.T1 + code.T2)


def drop_relays(code: DstbcCode, indices) -> DstbcCode:
    """Remove design columns (failed relays); grouping and sets are kept.

    The relay form is scanned under the parent's pairing, which keeps the
    surviving columns conjugate linear, so S is the scan's, as code_from_dict
    reads it back (a component whose lowest column was dropped may flip).
    """
    drop = sorted({int(i) for i in indices})
    if any(i < 0 or i >= code.N for i in drop):
        raise ValueError("relay index out of range")
    if len(drop) >= code.N:
        raise ValueError("cannot drop every relay")
    if not drop:
        return code
    keep = [j for j in range(code.N) if j not in drop]
    design = LinearDesign(code.T2, len(keep), code.K, code.design.weights[:, :, keep])
    old = code.relay_form
    form = None if old is None else extract_relay_form(design, old.pairing)
    return DstbcCode(design, code.grouping, code.group_sets, form, None)


def from_design(design: LinearDesign, grouping: GroupingScheme | None = None,
                pairing=None) -> DstbcCode:
    """Wrap a loaded design; singleton groups by default, with their default
    alphabets when every group has one (groups of one or two symbols).

    The relay form is scanned with pairing (default (0, 1), (2, 3), ...); a
    design not conjugate linear under it has none, so it can be checked for
    the diversity criteria but not channel-simulated.
    """
    if grouping is None:
        grouping = GroupingScheme(tuple((i,) for i in range(design.K)))
    sets = tuple(default_group_set(len(g)) for g in grouping.groups)
    return DstbcCode(design, grouping, None if None in sets else sets,
                     _relay_form_or_none(design, pairing))


# named constructions, each the COD it builds from for N relays; aliases
# keep CLI spellings short
_PRESETS = {
    "alamouti": lambda N: cod_alamouti(),
    "scalar": lambda N: cod_trivial(),
    "toeplitz": lambda N: cod_trivial(),
    "scalar-full": lambda N: cod_trivial(),
    "single-complex": lambda N: cod_trivial() if N == 2 else cod_alamouti(),
}
_ALIASES = {
    "example1": "alamouti",
    "example2": "scalar",
    "example2_full": "scalar-full",
    "shi_zhang": "single-complex",
}


def preset_names() -> list:
    return sorted(_PRESETS) + sorted(_ALIASES)


def preset(
    name: str,
    N: int,
    lam: int | None = None,
    n: int = 1,
    group_set: SignalSet | None = None,
) -> DstbcCode:
    key = _ALIASES.get(name, name)
    require(key in _PRESETS, "preset", f"be one of {', '.join(preset_names())}", name)
    fixed = {"toeplitz": 1, "scalar-full": N, "single-complex": 2}.get(key)  # the others: any lam
    require(fixed is None or lam in (None, fixed), "lam", f"be {fixed} for the {key} preset", lam)
    require(N in (2, 4) or key != "single-complex", "N", f"be 2 or 4 for the {key} preset", N)
    lam = (1 if lam is None else lam) if fixed is None else fixed
    return build(N, _PRESETS[key](N), lam, n, group_set)


def code_to_dict(code: DstbcCode) -> dict:
    """The document code_from_dict loads back. A code whose weights are
    linearly dependent (a relay drop can zero a symbol's) is refused, since
    code_from_dict would refuse its document."""
    doc = design_to_dict(code.design)
    require(independent_weights(code.design), "code field 'weights'",
            "be linearly independent over R to be written", doc["weights"])
    doc["grouping"] = [list(g) for g in code.grouping.groups]
    if code.relay_form is not None:
        doc["S"] = sorted(code.relay_form.S)
        doc["T1"] = code.relay_form.T1
        pairing = code.relay_form.pairing
        if pairing != tuple((2 * t, 2 * t + 1) for t in range(len(pairing))):
            doc["pairing"] = [list(pq) for pq in pairing]
    return doc


def _partition(lists, k: int) -> bool:
    """lists is a list of integer lists that together hold 0..k-1 once each."""
    if not (isinstance(lists, list) and all(isinstance(v, list) for v in lists)):
        return False
    flat = [i for v in lists for i in v]
    return all(type(i) is int for i in flat) and sorted(flat) == list(range(k))


def code_from_dict(doc: dict) -> DstbcCode:
    """Inverse of code_to_dict; a malformed field raises a ValueError naming it.
    The relay form is scanned with the document's pairing (default identity),
    and S and T1, when given, must match the scan."""
    design = design_from_dict(doc)
    k = design.K
    groups = doc.get("grouping", [[i] for i in range(k)])
    require(_partition(groups, k) and all(g == sorted(g) for g in groups),
            "code field 'grouping'", f"be ascending index lists that partition 0..{k - 1}", groups)
    pairing = doc.get("pairing")
    require("pairing" not in doc or _partition(pairing, k) and all(len(pq) == 2 for pq in pairing),
            "code field 'pairing'", f"be [p, q] index pairs that cover 0..{k - 1} once each",
            pairing)
    s, t1 = doc.get("S", []), doc.get("T1", 0)
    require(isinstance(s, list) and all(type(j) is int for j in s), "code field 'S'",
            "be a list of relay column indices", s)
    require(type(t1) is int, "code field 'T1'", "be an integer", t1)
    code = from_design(design, GroupingScheme(tuple(map(tuple, groups))), pairing)
    form = code.relay_form
    if form is not None:
        require(frozenset(doc.get("S", form.S)) == form.S, "code field 'S'",
                f"match the conjugation scan's {sorted(form.S)}", s)
        require(doc.get("T1", form.T1) == form.T1, "code field 'T1'",
                f"match the conjugation scan's {form.T1}", t1)
    return code


def _load_json(path, what: str) -> dict:
    """The JSON object in the file at path; a refusal names the file as what."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        require(False, f"{what} {path}", "be a readable file", e.strerror)
    except ValueError as e:  # not JSON, or not text
        require(False, f"{what} {path}", "hold valid JSON", str(e))
    require(isinstance(doc, dict), f"{what} {path}", "hold a JSON object", type(doc).__name__)
    return doc


def resolve_code(spec) -> DstbcCode:
    """The code named by spec, an ExperimentConfig or parsed CLI arguments:
    a preset (with N, lam, n) or a design file, plus an optional modulation."""
    require((spec.preset is None) != (spec.design_file is None),
            "exactly one of preset and design_file", "be given", (spec.preset, spec.design_file))
    gset = modulation_set(spec.modulation) if spec.modulation else None
    if spec.design_file is not None:
        code = code_from_dict(_load_json(spec.design_file, "design file"))
    else:
        require(spec.N is not None, "N", "be given with a preset", spec.N)
        code = preset(spec.preset, spec.N, spec.lam, 1 if spec.n is None else spec.n)
    if gset is None:
        return code
    sizes = "/".join(map(str, sorted({len(g) for g in code.grouping.groups})))
    require(sizes == str(gset.dim), "modulation",
            f"fit the code's group size {sizes} (pamM fits 1, qamM 2)", spec.modulation)
    return code.with_sets(gset)
