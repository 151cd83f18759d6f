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

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .constellation import SignalSet, make_pam, make_rotated_qam, rotation_2d
from .design import (
    CodProfile,
    LinearDesign,
    cod_alamouti,
    cod_trivial,
    design_from_dict,
    design_to_dict,
    independent_weights,
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

    @property
    def lam_max(self) -> int:
        return max(len(g) for g in self.groups)

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

    z = V x is the length-T1 complex vector the source broadcasts; column j
    of the design equals B[j] @ z for j not in S and B[j].conj() @ z.conj()
    for j in S.
    """

    T1: int
    V: np.ndarray
    B: tuple
    S: frozenset

    def __post_init__(self):
        v = np.asarray(self.V, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "V", v)
        bs = tuple(np.asarray(b, dtype=complex) for b in self.B)
        for b in bs:
            b.setflags(write=False)
        object.__setattr__(self, "B", bs)
        object.__setattr__(self, "S", frozenset(int(j) for j in self.S))

    def relay_matrix(self, j: int) -> np.ndarray:
        """The matrix the relay actually applies: B_j, conjugated for j in S."""
        return self.B[j].conj() if j in self.S else self.B[j]

    def codeword_column(self, j: int, z: np.ndarray) -> np.ndarray:
        if j in self.S:
            return self.B[j].conj() @ z.conj()
        return self.B[j] @ z


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

    def with_sets(self, sets) -> "DstbcCode":
        if isinstance(sets, SignalSet):
            sets = (sets,) * self.grouping.g
        return replace(self, group_sets=tuple(sets))


def default_group_set(lam: int) -> SignalSet | None:
    """Smallest standard alphabet for a group of lam real symbols."""
    if lam == 1:
        return make_pam(2)
    if lam == 2:
        return make_rotated_qam(4, rotation_2d())
    return None


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
    pairing = [(int(p), int(q)) for p, q in pairing]
    if sorted([i for pq in pairing for i in pq]) != list(range(design.K)):
        raise ValueError("pairing must cover each symbol exactly once")

    w = design.weights
    t1 = len(pairing)
    scale = max(np.abs(w).max(), 1.0)
    tol = _SCAN_TOL * scale

    # per (column, super-symbol): coefficient rows of w_t and of conj(w_t)
    coef_w = np.empty((design.N, t1, design.T), dtype=complex)
    coef_ws = np.empty((design.N, t1, design.T), dtype=complex)
    for t, (p, q) in enumerate(pairing):
        cp = w[p].T  # (N, T): rows indexed by column j
        cq = w[q].T
        coef_w[:, t, :] = 0.5 * (cp - 1j * cq)
        coef_ws[:, t, :] = 0.5 * (cp + 1j * cq)
    sees_w = np.abs(coef_w).max(axis=2) > tol   # (N, t1)
    sees_ws = np.abs(coef_ws).max(axis=2) > tol
    mixed = sees_w & sees_ws
    if mixed.any():
        j, t = np.argwhere(mixed)[0]
        raise NotConjugateLinear(
            f"column {j} mixes super-symbol {t} with its conjugate"
        )

    # 2-coloring: nodes are columns (0..N-1) and super-symbols (N..N+t1-1);
    # an unconjugated appearance ties the two labels equal, a conjugated one
    # ties them opposite.
    n_nodes = design.N + t1
    parent = list(range(n_nodes))
    par = [0] * n_nodes  # parity relative to parent

    def find(a):
        path = []
        node = a
        while parent[node] != node:
            path.append(node)
            node = parent[node]
        root, p = node, 0
        for nd in reversed(path):
            p ^= par[nd]
            parent[nd] = root
            par[nd] = p
        return root, p

    def union(a, b, rel):
        ra, pa = find(a)
        rb, pb = find(b)
        if ra == rb:
            if pa ^ pb != rel:
                raise NotConjugateLinear("inconsistent conjugation pattern")
            return
        parent[ra] = rb
        par[ra] = pa ^ pb ^ rel

    for j in range(design.N):
        for t in range(t1):
            if sees_w[j, t]:
                union(j, design.N + t, 0)
            elif sees_ws[j, t]:
                union(j, design.N + t, 1)

    # anchor each component at its lowest column, labeled unconjugated
    anchor = {}
    for j in range(design.N):
        root, p = find(j)
        anchor.setdefault(root, p)
    col_conj = np.zeros(design.N, dtype=bool)
    sym_conj = np.zeros(t1, dtype=bool)
    for j in range(design.N):
        root, p = find(j)
        col_conj[j] = bool(p ^ anchor.get(root, 0))
    for t in range(t1):
        root, p = find(design.N + t)
        sym_conj[t] = bool(p ^ anchor.get(root, 0))

    v = np.zeros((t1, design.K), dtype=complex)
    for t, (p, q) in enumerate(pairing):
        v[t, p] = 1.0
        v[t, q] = -1j if sym_conj[t] else 1j
    b_mats = []
    for j in range(design.N):
        cols = np.empty((design.T, t1), dtype=complex)
        for t in range(t1):
            if col_conj[j]:
                c = coef_w[j, t] if sym_conj[t] else coef_ws[j, t]
                cols[:, t] = c.conj()
            else:
                cols[:, t] = coef_ws[j, t] if sym_conj[t] else coef_w[j, t]
        b_mats.append(cols)
    s = frozenset(int(j) for j in np.nonzero(col_conj)[0])
    return ConjugateLinearForm(t1, v, tuple(b_mats), s)


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
    if N % cod.Np:
        raise ValueError(f"N = {N} is not a multiple of the COD width {cod.Np}")
    L = N // cod.Np
    if not 1 <= lam <= L:
        raise ValueError(f"lam must be in 1..{L}, got {lam}")
    if n < 1:
        raise ValueError("n must be >= 1")
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
    form = None
    if pairs:
        try:
            form = extract_relay_form(design, pairs)
        except NotConjugateLinear:
            form = None
    if group_set is None:
        group_set = default_group_set(lam)
    sets = (group_set,) * grouping.g if group_set is not None else None
    return DstbcCode(design, grouping, sets, form, params)


def rate_cspcu(code: DstbcCode) -> Fraction:
    """Complex symbols per channel use across both phases, exact."""
    return Fraction(code.K, 2 * (code.T1 + code.T2))


def bits_per_channel_use(code: DstbcCode) -> Fraction:
    if code.group_sets is None:
        raise ValueError("code has no signal sets attached")
    total_bits = sum(s.bits_per_point for s in code.group_sets)
    return Fraction(total_bits, code.T1 + code.T2)


def drop_relays(code: DstbcCode, indices) -> DstbcCode:
    """Remove design columns (failed relays); grouping and sets are kept."""
    drop = sorted({int(i) for i in indices})
    if any(i < 0 or i >= code.N for i in drop):
        raise ValueError("relay index out of range")
    if len(drop) >= code.N:
        raise ValueError("cannot drop every relay")
    if not drop:
        return code
    keep = [j for j in range(code.N) if j not in drop]
    design = LinearDesign(
        code.T2, len(keep), code.K, code.design.weights[:, :, keep]
    )
    form = None
    if code.relay_form is not None:
        old = code.relay_form
        form = ConjugateLinearForm(
            old.T1,
            old.V,
            tuple(old.B[j] for j in keep),
            frozenset(pos for pos, j in enumerate(keep) if j in old.S),
        )
    return DstbcCode(design, code.grouping, code.group_sets, form, None)


def from_design(
    design: LinearDesign,
    grouping: GroupingScheme | None = None,
    group_sets=None,
) -> DstbcCode:
    """Wrap a loaded design; singleton groups by default.

    The relay form is recovered with the identity symbol pairing when the
    design is conjugate linear under it; otherwise the code can still be
    checked for diversity criteria but not channel-simulated.
    """
    if grouping is None:
        grouping = GroupingScheme(tuple((i,) for i in range(design.K)))
    try:
        form = extract_relay_form(design)
    except NotConjugateLinear:
        form = None
    code = DstbcCode(design, grouping, None, form, None)
    if group_sets is None:
        sets = tuple(default_group_set(len(g)) for g in grouping.groups)
        if all(s is not None for s in sets):
            code = code.with_sets(sets)
    else:
        code = code.with_sets(group_sets)
    return code


# named constructions; aliases keep CLI spellings short
def _preset_alamouti(N: int, lam: int | None, n: int, group_set=None) -> DstbcCode:
    lam = 1 if lam is None else lam
    return build(N, cod_alamouti(), lam, n, group_set)


def _preset_scalar(N: int, lam: int | None, n: int, group_set=None) -> DstbcCode:
    lam = 1 if lam is None else lam
    return build(N, cod_trivial(), lam, n, group_set)


def _preset_toeplitz(N: int, lam: int | None, n: int, group_set=None) -> DstbcCode:
    if lam not in (None, 1):
        raise ValueError("the toeplitz preset fixes lam = 1")
    return build(N, cod_trivial(), 1, n, group_set)


def _preset_scalar_full(N: int, lam: int | None, n: int, group_set=None) -> DstbcCode:
    if lam is not None and lam != N:
        raise ValueError("the scalar-full preset fixes lam = N")
    return build(N, cod_trivial(), N, n, group_set)


def _preset_single_complex(N: int, lam: int | None, n: int, group_set=None) -> DstbcCode:
    if lam not in (None, 2):
        raise ValueError("the single-complex preset fixes lam = 2")
    if N == 2:
        return build(2, cod_trivial(), 2, n, group_set)
    if N == 4:
        return build(4, cod_alamouti(), 2, n, group_set)
    raise ValueError("the single-complex preset exists for N = 2 or 4")


_PRESETS = {
    "alamouti": _preset_alamouti,
    "scalar": _preset_scalar,
    "toeplitz": _preset_toeplitz,
    "scalar-full": _preset_scalar_full,
    "single-complex": _preset_single_complex,
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
    if key not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return _PRESETS[key](N, lam, n, group_set)


def _pairing_of(form: ConjugateLinearForm) -> list:
    """Recover the (p, q) symbol pairs from the rows of V."""
    pairs = []
    for row in form.V:
        nz = np.nonzero(row)[0]
        p = int(nz[np.argmin(np.abs(row[nz] - 1.0))])
        q = int(nz[0] if nz[1] == p else nz[1])
        pairs.append((p, q))
    return pairs


def code_to_dict(code: DstbcCode) -> dict:
    doc = design_to_dict(code.design)
    doc["grouping"] = [list(g) for g in code.grouping.groups]
    if code.relay_form is not None:
        doc["S"] = sorted(code.relay_form.S)
        doc["T1"] = code.relay_form.T1
        pairing = _pairing_of(code.relay_form)
        if pairing != [(2 * t, 2 * t + 1) for t in range(len(pairing))]:
            doc["pairing"] = [list(pq) for pq in pairing]
    return doc


def code_from_dict(doc: dict) -> DstbcCode:
    design = design_from_dict(doc)
    grouping = None
    if "grouping" in doc:
        grouping = GroupingScheme(tuple(tuple(g) for g in doc["grouping"]))
    code = from_design(design, grouping)
    if "pairing" in doc and code.relay_form is None:
        try:
            form = extract_relay_form(design, [tuple(pq) for pq in doc["pairing"]])
        except NotConjugateLinear:
            form = None
        code = replace(code, relay_form=form)
    if code.relay_form is not None:
        if "S" in doc and frozenset(doc["S"]) != code.relay_form.S:
            raise ValueError("stored S disagrees with the conjugation scan")
        if "T1" in doc and int(doc["T1"]) != code.relay_form.T1:
            raise ValueError("stored T1 disagrees with the conjugation scan")
    return code
