"""Truncated generating functions and exact fitting.

A class's generating function is Sum |C_n| z^n; here it is represented by
its truncated coefficient prefix.  Two guessers are provided: rational
(ratio of polynomials) and algebraic (a bivariate polynomial P with
P(z, F(z)) = 0).  All linear algebra is over exact rationals -- kernel
membership is exact or meaningless -- and every returned fit is re-expanded
against the full supplied prefix before it is reported, inside the
operation itself.  A margin of two extra matched coefficients beyond the
unknown count is required, guarding against coincidental low-degree fits.
No-fit is a successful result, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InsufficientPrefixError, PermPatError

FIT_MARGIN = 2  # extra matched coefficients required beyond the unknown count


def series_from_enumeration(enum) -> list[int]:
    """Coefficient prefix c_0..c_N with c_n = |C_n|, copied exactly."""
    return list(enum.counts)


# ---------------------------------------------------------------------------
# Exact kernel computation


def _kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the nullspace of the given matrix, via fraction-exact
    Gauss-Jordan elimination.  Each basis vector sets one free variable to
    1 and the rest to 0, so the basis is canonical."""
    matrix = [row[:] for row in rows]
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = Fraction(1, 1) / matrix[r][c]
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(matrix):
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: list[list[Fraction]] = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_i, pc in enumerate(pivot_cols):
            vec[pc] = -matrix[row_i][fc]
        basis.append(vec)
    return basis


def _normalize_ints(fracs: list[Fraction]) -> list[int]:
    """Clear denominators and divide by the content, leaving primitive
    integer coefficients (sign untouched)."""
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    if content > 1:
        ints = [v // content for v in ints]
    return ints


def _join_terms(terms: list[tuple[int, str]]) -> str:
    """Signed terms (coefficient, unsigned text) as one sum, e.g.
    [(1, "1"), (-1, "z")] -> "1 - z"; "0" when there are none."""
    parts = [("-" if c < 0 else "") + body for c, body in terms[:1]]
    parts += [("- " if c < 0 else "+ ") + body for c, body in terms[1:]]
    return " ".join(parts) if parts else "0"


def _poly_str(coeffs: tuple[int, ...], var: str) -> str:
    """Canonical text for a univariate polynomial, low degree first,
    e.g. (1, -1) -> "1 - z"."""
    terms: list[tuple[int, str]] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        body = str(abs(c)) if i == 0 or abs(c) != 1 else ""
        if i >= 1:
            body += ("*" if body else "") + (var if i == 1 else f"{var}^{i}")
        terms.append((c, body))
    return _join_terms(terms)


# ---------------------------------------------------------------------------
# Rational fitting


@dataclass(frozen=True)
class RationalFit:
    """numerator / denominator, primitive integer coefficients (low degree
    first), denominator constant term positive and nonzero."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __str__(self) -> str:
        return f"({_poly_str(self.numerator, 'z')})/({_poly_str(self.denominator, 'z')})"

    def expand(self, n_terms: int) -> list[Fraction]:
        """Power-series expansion of the ratio through degree n_terms - 1."""
        p, q = self.numerator, self.denominator
        out: list[Fraction] = []
        for m in range(n_terms):
            acc = Fraction(p[m]) if m < len(p) else Fraction(0)
            for j in range(1, min(m, len(q) - 1) + 1):
                acc -= q[j] * out[m - j]
            out.append(acc / q[0])
        return out

    def to_json(self) -> dict:
        return {
            "numerator": list(self.numerator),
            "denominator": list(self.denominator),
            "text": str(self),
        }


def _degree_pairs(max_a: int, max_b: int, b_min: int = 0):
    pairs = [(a, b) for a in range(max_a + 1) for b in range(b_min, max_b + 1)]
    pairs.sort(key=lambda ab: (ab[0] + ab[1], ab[1], ab[0]))
    return pairs


def fit_rational(
    series: list[int], max_num_deg: int, max_den_deg: int
) -> RationalFit | None:
    """Minimal-degree rational function whose expansion reproduces every
    supplied coefficient, or None.

    Solves Q * S = P (mod z^(N+1)) exactly: for each candidate degree pair
    the denominator is a kernel vector of the linear system given by the
    coefficients above the numerator degree.
    """
    if max_num_deg < 0 or max_den_deg < 0:
        raise PermPatError(
            f"fit degrees must be non-negative, got ({max_num_deg}, {max_den_deg})"
        )
    n_top = len(series) - 1
    required = max_num_deg + max_den_deg + FIT_MARGIN
    if n_top < required:
        raise InsufficientPrefixError(
            f"prefix degree {n_top} is too short for degrees "
            f"({max_num_deg}, {max_den_deg}); need N >= {required}",
            required,
        )
    for dn, dd in _degree_pairs(max_num_deg, max_den_deg):
        rows = [
            [Fraction(series[m - j]) if m - j >= 0 else Fraction(0) for j in range(dd + 1)]
            for m in range(dn + 1, n_top + 1)
        ]
        for vec in _kernel_basis(rows, dd + 1):
            if vec[0] == 0:
                continue  # denominator needs a nonzero constant term
            q = vec
            p = [
                sum(q[j] * series[m - j] for j in range(min(dd, m) + 1))
                for m in range(dn + 1)
            ]
            ints = _normalize_ints(list(p) + list(q))
            if ints[dn + 1] < 0:  # make the denominator constant term positive
                ints = [-v for v in ints]
            fit = RationalFit(tuple(ints[: dn + 1]), tuple(ints[dn + 1 :]))
            expansion = fit.expand(n_top + 1)
            if all(expansion[m] == series[m] for m in range(n_top + 1)):
                return fit
            break  # canonical vector failed verification; try next degrees
    return None


# ---------------------------------------------------------------------------
# Algebraic fitting


@dataclass(frozen=True)
class AlgebraicFit:
    """A nonzero bivariate polynomial P(z, y), primitive integer
    coefficients keyed by (z-degree, y-degree), with the leading
    coefficient of the highest y-power positive."""

    coefficients: dict[tuple[int, int], int]

    def __str__(self) -> str:
        terms: list[tuple[int, str]] = []
        for i, j in sorted(self.coefficients, key=lambda ij: (-ij[1], -ij[0])):
            c = self.coefficients[(i, j)]
            body = "*".join(
                ([] if abs(c) == 1 and (i or j) else [str(abs(c))])
                + (["z" if i == 1 else f"z^{i}"] if i else [])
                + (["y" if j == 1 else f"y^{j}"] if j else [])
            )
            terms.append((c, body))
        return _join_terms(terms)

    def residue(self, series: list[int]) -> list[Fraction]:
        """Coefficients of P(z, F(z)) truncated to the series length."""
        n_terms = len(series)
        max_y = max(j for _, j in self.coefficients)
        powers = _y_powers(series, max_y, n_terms)
        out = [Fraction(0)] * n_terms
        for (i, j), c in self.coefficients.items():
            for m in range(i, n_terms):
                out[m] += c * powers[j][m - i]
        return out

    def to_json(self) -> dict:
        return {
            "coefficients": {f"{i},{j}": c for (i, j), c in sorted(self.coefficients.items())},
            "text": str(self),
        }


def _y_powers(series: list[int], max_j: int, n_terms: int) -> list[list[int]]:
    """Truncated powers F^0..F^max_j of the series, each to n_terms."""
    powers = [[1] + [0] * (n_terms - 1)]
    for _ in range(max_j):
        prev = powers[-1]
        powers.append(
            [
                sum(prev[a] * series[m - a] for a in range(m + 1))
                for m in range(n_terms)
            ]
        )
    return powers


def fit_algebraic(
    series: list[int], max_deg_z: int, max_deg_y: int
) -> AlgebraicFit | None:
    """Minimal bivariate polynomial P(z, y) with P(z, F(z)) = 0 through
    the full prefix, or None within the degree bounds.

    Candidate degree pairs are tried in increasing unknown count; pairs
    whose unknown count leaves less than the safety margin of matched
    coefficients are skipped.  It is an error only if no pair at all fits
    in the prefix.
    """
    if max_deg_z < 0:
        raise PermPatError(f"algebraic fitting needs z-degree >= 0, got {max_deg_z}")
    if max_deg_y < 1:
        raise PermPatError("algebraic fitting needs y-degree >= 1")
    n_terms = len(series)
    pairs = [
        (dz, dy)
        for dz, dy in _degree_pairs(max_deg_z, max_deg_y, b_min=1)
        if (dz + 1) * (dy + 1) + FIT_MARGIN <= n_terms
    ]
    if not pairs:
        # the cheapest pair is (0, 1) with 2 unknowns
        required = 2 + FIT_MARGIN - 1
        raise InsufficientPrefixError(
            f"prefix degree {n_terms - 1} is too short for any degree pair within "
            f"({max_deg_z}, {max_deg_y}); need N >= {required}",
            required,
        )
    pairs.sort(key=lambda p: ((p[0] + 1) * (p[1] + 1), p[1], p[0]))
    powers = _y_powers(series, max_deg_y, n_terms)
    for dz, dy in pairs:
        monomials = [(i, j) for j in range(dy + 1) for i in range(dz + 1)]
        rows = [
            [
                Fraction(powers[j][m - i]) if m >= i else Fraction(0)
                for (i, j) in monomials
            ]
            for m in range(n_terms)
        ]
        for vec in _kernel_basis(rows, len(monomials)):
            ints = _normalize_ints(vec)
            coeffs = {
                monomials[idx]: ints[idx] for idx in range(len(monomials)) if ints[idx]
            }
            if not coeffs or all(j == 0 for _, j in coeffs):
                continue  # must involve y
            top_j = max(j for _, j in coeffs)
            top_i = max(i for (i, j) in coeffs if j == top_j)
            if coeffs[(top_i, top_j)] < 0:
                coeffs = {ij: -c for ij, c in coeffs.items()}
            fit = AlgebraicFit(coeffs)
            if all(r == 0 for r in fit.residue(series)):
                return fit
    return None
