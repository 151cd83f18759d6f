"""Correctness checks of the benchmark workloads.

Each check tests a property the method must have, or agreement with the
independent reference simulator; none compares against stored output. A
check returns problem messages (empty when the property holds) so that the
benchmark can charge each problem to the operation that produced it.
"""

from __future__ import annotations

import math

import numpy as np

CSV_HEADER = "snr_db,trials,bit_errors,ber"
# 1 / ln(10): the standard error of log10(p) is LOG10_E / sqrt(errors)
LOG10_E = 0.4342944819032518


def parse_csv(text: str) -> list:
    """Rows of a BER CSV as dicts; the header must match the fixed schema."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"BER CSV header is not {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        snr, trials, errors, ber = line.split(",")
        rows.append({"snr_db": float(snr), "trials": int(trials),
                     "bit_errors": int(errors), "ber": float(ber), "ber_text": ber})
    return rows


def point_problems(points, cap: int, target: int, bits_per_cw: int) -> dict:
    """Per-point problems of one BER curve: {point index: [messages]}.

    A point below the bit-error target ran exactly the trial cap; BER equals
    bit_errors / (trials * bits_per_codeword) as printed to 6 significant
    digits, lies strictly inside (0, 1/2) and falls strictly with SNR.
    """
    out: dict = {}

    def bad(i, msg):
        out.setdefault(i, []).append(msg)

    for i, p in enumerate(points):
        t, e = p["trials"], p["bit_errors"]
        if not 1 <= t <= cap:
            bad(i, f"trials {t} outside [1, cap {cap}]")
            continue
        if e < target and t != cap:
            bad(i, f"stopped at {t} trials below the cap {cap} with {e} < {target} errors")
        ber = e / (t * bits_per_cw)
        if f"{ber:.6g}" != p["ber_text"]:
            bad(i, f"BER {p['ber_text']} != {e}/({t}*{bits_per_cw}) = {ber:.6g}")
        if not 0.0 < ber < 0.5:
            bad(i, f"BER {ber:.6g} not strictly inside (0, 1/2)")
        if i and p["snr_db"] <= points[i - 1]["snr_db"]:
            bad(i, "SNR grid not ascending")
        if i and p["ber"] >= points[i - 1]["ber"]:
            bad(i, f"BER {p['ber']:.6g} does not fall from {points[i - 1]['ber']:.6g}")
    return out


def csv_mismatches(expected: str, got: str) -> list:
    """Indices of data rows whose bytes differ (all rows if the shape differs)."""
    exp, new = expected.splitlines(), got.splitlines()
    if len(exp) != len(new) or exp[:1] != new[:1] or not expected.endswith("\n") \
            or not got.endswith("\n"):
        return list(range(max(len(exp), len(new)) - 1))
    return [i - 1 for i in range(1, len(exp)) if exp[i] != new[i]]


def first_stop_problem(point, prefix_point, target: int):
    """An early-stopped point must not have reached the target one trial sooner.

    prefix_point is the same SNR point re-run with the cap set to one trial
    fewer than the point used.
    """
    if point["bit_errors"] < target:
        return None
    want = point["trials"] - 1
    if prefix_point["trials"] != want:
        return f"prefix re-run ran {prefix_point['trials']} trials, expected {want}"
    if prefix_point["bit_errors"] >= target:
        return (f"target {target} already reached after {want} trials "
                f"({prefix_point['bit_errors']} errors); stop was late")
    return None


def slope_fit(points, bits_per_cw: int):
    """Diversity slope and its standard error.

    Ordinary least squares of log10(BER) against SNR/10. Each point's
    log-BER variance is LOG10_E^2 * bits_per_cw / bit_errors: the binomial
    value widened by the bits of a codeword, which can fail together.
    """
    x = np.array([p["snr_db"] / 10.0 for p in points])
    y = np.log10([p["ber"] for p in points])
    var = np.array([LOG10_E ** 2 * bits_per_cw / p["bit_errors"] for p in points])
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = -float(xc @ y) / sxx
    se = math.sqrt(float((xc ** 2) @ var)) / sxx
    return slope, se


def slope_problem(points, window_db: float, bits_per_cw: int, margin_se: float = 3.0):
    """The slope over the top SNR window must exceed 1 by margin_se standard errors."""
    top = max(p["snr_db"] for p in points)
    window = [p for p in points if p["snr_db"] >= top - window_db and p["bit_errors"] > 0]
    if len(window) < 2:
        return "fewer than two points with errors in the slope window"
    slope, se = slope_fit(window, bits_per_cw)
    if slope - margin_se * se <= 1.0:
        return (f"diversity slope {slope:.3f} (se {se:.3f}) is not above 1 by "
                f"{margin_se:g} standard errors")
    return None


def _sigma(p, bits_per_cw: int) -> float:
    return math.sqrt(p["ber"] * (1.0 - p["ber"]) / (p["trials"] * bits_per_cw))


def ordering_problem(ml, pic_sic, pic, bits_per_cw: int) -> list:
    """BER(ML) <= BER(PIC-SIC) + 3 sigma and BER(PIC-SIC) <= BER(PIC) + 3 sigma,
    sigma being the binomial standard error of the larger-BER decoder."""
    msgs = []
    if ml["ber"] > pic_sic["ber"] + 3.0 * _sigma(pic_sic, bits_per_cw):
        msgs.append(f"BER(ML) {ml['ber']:.5g} > BER(PIC-SIC) {pic_sic['ber']:.5g} + 3 sigma")
    if pic_sic["ber"] > pic["ber"] + 3.0 * _sigma(pic, bits_per_cw):
        msgs.append(f"BER(PIC-SIC) {pic_sic['ber']:.5g} > BER(PIC) {pic['ber']:.5g} + 3 sigma")
    return msgs


def reference_band_problem(bit_errors: int, trials: int, ref_errors, bits_per_cw: int,
                           z: float = 4.0):
    """Program BER and reference BER agree within z standard errors.

    The standard error is binomial at the pooled BER, widened by the design
    effect of codewords: the reference's per-codeword error variance over
    its binomial value, never below 1.
    """
    ref = np.asarray(ref_errors)
    m = bits_per_cw
    p_prog = bit_errors / (trials * m)
    p_ref = float(ref.sum()) / (ref.size * m)
    pooled = (bit_errors + float(ref.sum())) / ((trials + ref.size) * m)
    if pooled <= 0.0:
        return "no bit errors on either side; the band is undefined"
    binom = m * pooled * (1.0 - pooled)
    deff = max(1.0, float(ref.var(ddof=1)) / binom) if ref.size > 1 else 1.0
    se = math.sqrt(deff * pooled * (1.0 - pooled) / m * (1.0 / trials + 1.0 / ref.size))
    if abs(p_prog - p_ref) > z * se:
        return (f"BER {p_prog:.5g} vs reference {p_ref:.5g}: outside {z:g} sigma "
                f"(sigma {se:.3g}, design effect {deff:.2f})")
    return None


def rank_deficient(mat: np.ndarray, threshold: float) -> bool:
    """Smallest/largest singular value ratio at or below threshold, by SVD."""
    rows, cols = mat.shape
    if rows < cols:
        return True
    s = np.linalg.svd(mat, compute_uv=False)
    return bool(s[0] == 0.0 or s[-1] <= threshold * s[0])


def interference_indices(groups, k: int, criterion: str) -> list:
    """PIC: every symbol outside group k; PIC-SIC: the groups after k."""
    if criterion == "PIC":
        own = set(groups[k])
        return sorted(i for g in groups for i in g if i not in own)
    return sorted(i for g in groups[k + 1:] for i in g)


def witness_matrix(weights: np.ndarray, groups, criterion: str, witness) -> np.ndarray:
    """The T2 x N combination a failing report names."""
    if criterion == "ZF":
        return np.einsum("k,ktn->tn", np.asarray(witness.u), weights)
    k = witness.k
    mat = np.einsum("g,gtn->tn", np.asarray(witness.a_k), weights[list(groups[k])])
    idx = interference_indices(groups, k, criterion)
    if idx:
        mat = mat + np.einsum("c,ctn->tn", np.asarray(witness.u), weights[idx])
    return mat


def report_problems(report, weights, groups, threshold: float,
                    must_pass: bool = False, must_fail: bool = False,
                    must_certify: bool = False) -> list:
    """A criterion report is consistent with an SVD the benchmark computes.

    A passing report's smallest singular-value ratio lies above threshold; a
    failing report carries a witness that is rank deficient.
    """
    msgs = []
    if must_pass and not report.passed:
        msgs.append(f"{report.criterion} expected to pass but failed")
    if must_fail and report.passed:
        msgs.append(f"{report.criterion} expected to fail but passed")
    if must_certify and report.analytic_certificate is not True:
        msgs.append(f"{report.criterion} lacks the analytic certificate")
    if report.passed:
        if not report.min_singular_value > threshold:
            msgs.append(f"passing report has min singular-value ratio "
                        f"{report.min_singular_value:.3g} <= {threshold:g}")
    elif report.witness is None:
        msgs.append("failing report has no witness")
    elif not rank_deficient(witness_matrix(weights, groups, report.criterion,
                                           report.witness), threshold):
        msgs.append(f"{report.criterion} witness is not rank deficient")
    return msgs
