"""The paper's identities thm1, thm2, cor1 and "combined" at the CLI's largest
order, n <= 200, which the audit never reaches: both sides are evaluated mod
p = 2^61 - 1 by the mod-p transcriptions of ``tests/oracles.py`` alone, with
no package code.  This is evidence about the identities, not about the
package: the Euler shape at each (w, alpha, beta) is its own mod-p division,
never rescaled from another point, and a printed binomial sum
sum_i C(n,i) s^{n-i} v_i is the product with e^{st} (``times_exp_mod``).
"""

from fractions import Fraction

import pytest

from oracles import euler_shape_mod, residue, times_exp_mod

F = Fraction
P = 2**61 - 1
ORDER = 200

# Two fixed points, depth 2 and depth 3, with 4-digit alpha, beta and x.
POINTS = {
    "depth-2": ((3, -2), F(1234, 9871), F(-5678, 4321), F(2718, 3141)),
    "depth-3": ((1, -1, 2), F(-3571, 2029), F(8191, 6007), F(-1597, 4181)),
}


def _lifted(values, lam):
    """lam^n values_n mod P."""
    return [v * pow(lam, n, P) % P for n, v in enumerate(values)]


@pytest.fixture(scope="module", params=sorted(POINTS))
def sides(request):
    """Both sides of each identity at one point, as residues for n = 0..ORDER."""
    ks, alpha, beta, x = POINTS[request.param]
    r, lam = len(ks), alpha + beta
    ab = euler_shape_mod(ks, alpha, beta, 0, ORDER, P)  # E_n(a, b)
    ab_at_x = euler_shape_mod(ks, alpha, beta, r * x, ORDER, P)  # E_n(x; a, b)
    plain = euler_shape_mod(ks, 0, 1, 0, ORDER, P)  # E_n
    lifted = _lifted(plain, residue(lam, P))  # (ln a + ln b)^n E_n
    # thm2's sum at s: sum_i C(n,i) (s ln a)^{n-i} (ln a + ln b)^i E_i.
    thm2 = {s: times_exp_mod(lifted, residue(s * alpha, P), P) for s in (1, r)}
    rx = residue(r * x, P)
    return {
        "thm1": (ab, _lifted(euler_shape_mod(ks, 0, 1, r * alpha / lam, ORDER, P), residue(lam, P))),
        "thm2": (ab, thm2[r]),
        "cor1": (ab_at_x, times_exp_mod(ab, rx, P)),
        # thm2 fed into cor1: r^{n-j} = r^{n-k} r^{k-j}, and as printed r^{n-k}.
        "combined": (ab_at_x, times_exp_mod(thm2[r], rx, P)),
        "combined-as-printed": (ab_at_x, times_exp_mod(thm2[1], rx, P)),
        "point": request.param,
    }


@pytest.mark.parametrize("identity", ["thm1", "thm2", "cor1", "combined"])
def test_identity_holds_mod_p_at_every_n_up_to_200(sides, identity):
    lhs, rhs = sides[identity]
    assert len(lhs) == len(rhs) == ORDER + 1
    assert lhs == rhs


# The first n at which the printed r^{n-k} shows: E_j = 0 below j = r, and a
# term with k > j >= r needs n >= r + 1.
FIRST_PRINTED_MISMATCH = {"depth-2": 3, "depth-3": 4}


def test_combined_as_printed_disagrees(sides):
    """Negative control: the printed double sum differs from the left side,
    first at the pinned n."""
    lhs, rhs = sides["combined-as-printed"]
    mismatches = [n for n in range(ORDER + 1) if lhs[n] != rhs[n]]
    assert mismatches[:1] == [FIRST_PRINTED_MISMATCH[sides["point"]]]
