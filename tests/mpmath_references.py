"""mpmath references for main terms that no command evaluates, and for the
Gaussian sums of modular.

The general Tauberian transfer and the partition and overpartition main
terms check the program's decimal main_term_v from an independent
arithmetic.  Each is evaluated, as main_term_v is, with GUARD_DIGITS digits
beyond max(dps, 30).  appell_sum, theta_sum, eta_product and mordell_integral
check the float evaluators and their error bounds at 30 to 40 digits.
"""

import mpmath as mp

from oddbalanced.asymptotics import DEFAULT_DPS, GUARD_DIGITS


def workdps(dps):
    return mp.workdps(max(dps, 30) + GUARD_DIGITS)


def tauberian_apply(lam, alpha, A, n, dps=DEFAULT_DPS):
    """Coefficient main term lam * A^(alpha/2+1/4) / (2 sqrt(pi) n^(alpha/2+3/4))
    * e^(2 sqrt(A n)) transferred from C(e^-t) ~ lam * t^alpha * e^(A/t)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with workdps(dps):
        A = mp.mpf(A)
        if A <= 0:
            raise ValueError("growth constant A must be positive")
        lam = mp.mpf(lam)
        alpha = mp.mpf(alpha)
        nn = mp.mpf(n)
        return (lam * A ** (alpha / 2 + mp.mpf(1) / 4)
                / (2 * mp.sqrt(mp.pi) * nn ** (alpha / 2 + mp.mpf(3) / 4))
                * mp.e ** (2 * mp.sqrt(A * nn)))


def hardy_ramanujan_p(n, dps=DEFAULT_DPS):
    """Partition main term e^(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with workdps(dps):
        nn = mp.mpf(n)
        return mp.e ** (mp.pi * mp.sqrt(2 * nn / 3)) / (4 * mp.sqrt(3) * nn)


def overpartition_asym(n, dps=DEFAULT_DPS):
    """Overpartition main term e^(pi sqrt n) / (8 n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with workdps(dps):
        nn = mp.mpf(n)
        return mp.e ** (mp.pi * mp.sqrt(nn)) / (8 * nn)


def _past(alpha, beta, gamma, log_eps):
    """The larger x with -alpha x^2 + beta x + gamma = log_eps (the vertex if
    there is none): past it the majorant e^(...) is below e^log_eps and falls.
    For beta < 0 the root is rationalised, which holds at alpha = 0 too."""
    disc = beta * beta + 4 * alpha * (gamma - log_eps)
    if beta < 0 < disc:
        return 2 * (gamma - log_eps) / (mp.sqrt(disc) - beta)
    return (beta + mp.sqrt(max(disc, 0))) / (2 * alpha)


def appell_sum(ell, u, v, tau, dps=40):
    """A_ell(u,v,tau) = e^(pi i ell u) sum_n (-1)^(ell n) e^(2 pi i n v)
    q^(ell n(n+1)/2)/(1 - e^(2 pi i u) q^n) at dps digits.  Past the n where
    |e^(2 pi i u) q^n| is at most 1/2 (or the -m where it is at least 2),
    term n (or -m) times |e^(pi i ell u)| is at most
    2 e^(-alpha k^2 + beta k + gamma) at k = n (or m), alpha = pi ell Im tau;
    each side runs until that majorant is below 10^-(dps + 10)."""
    with mp.workdps(dps + 10):
        u, v, tau = mp.mpc(u), mp.mpc(v), mp.mpc(tau)
        t, y, ln2 = tau.imag, u.imag, mp.ln(2)
        alpha, log_eps = mp.pi * ell * t, -(dps + 10) * mp.ln(10)
        top = max((ln2 / (2 * mp.pi) - y) / t,
                  _past(alpha, -(alpha + 2 * mp.pi * v.imag), ln2 - mp.pi * ell * y, log_eps))
        bottom = max((ln2 / (2 * mp.pi) + y) / t,
                     _past(alpha, alpha - 2 * mp.pi * t + 2 * mp.pi * v.imag,
                           ln2 + (2 - ell) * mp.pi * y, log_eps))
        q, e = mp.exp(2j * mp.pi * tau), mp.exp(2j * mp.pi * u)
        return mp.exp(1j * mp.pi * ell * u) * mp.fsum(
            (-1) ** (ell * n) * mp.exp(2j * mp.pi * n * v) * q ** (ell * n * (n + 1) // 2)
            / (1 - e * q ** n)
            for n in range(-int(mp.ceil(bottom)), int(mp.ceil(top)) + 1))


def theta_sum(z, tau, dps=40):
    """theta(z;tau) = sum over half-integers n of e^(pi i n^2 tau + 2 pi i n (z + 1/2))
    at dps digits, over the |n| at which the majorant
    e^(-pi Im(tau) n^2 + 2 pi |Im z| |n|) is at least 10^-(dps + 10)."""
    with mp.workdps(dps + 10):
        z, tau = mp.mpc(z), mp.mpc(tau)
        J = int(_past(mp.pi * tau.imag, 2 * mp.pi * abs(z.imag), 0, -(dps + 10) * mp.ln(10)))
        return mp.fsum(mp.exp(1j * mp.pi * tau * n * n + 2j * mp.pi * n * (z + mp.mpf(1) / 2))
                       for k in range(-J - 1, J + 1) for n in [k + mp.mpf(1) / 2])


def eta_product(tau, dps=40):
    """eta(tau) = q^(1/24) prod_{k>=1} (1 - q^k) at dps digits, by mpmath's
    q-Pochhammer symbol: the product form, independent of the pentagonal
    number theorem that the float evaluator sums."""
    with mp.workdps(dps + 10):
        tau = mp.mpc(tau)
        return mp.exp(2j * mp.pi * tau / 24) * mp.qp(mp.exp(2j * mp.pi * tau))


def mordell_integral(z, tau, dps=30):
    """h(z;tau) = int e^(pi i tau x^2 - 2 pi z x)/cosh(pi x) dx at dps digits
    by mpmath's quadrature on unit subintervals of [-X, X], X the first
    integer past which the majorant e^(-pi Im(tau) x^2 + (2 pi |Re z| - pi) x)
    is below e^-80."""
    with mp.workdps(dps):
        z, tau = mp.mpc(z), mp.mpc(tau)
        X = int(mp.ceil(_past(mp.pi * tau.imag, 2 * mp.pi * abs(z.real) - mp.pi, 0, -80)))
        return mp.quad(lambda x: mp.exp(mp.pi * 1j * tau * x * x - 2 * mp.pi * z * x)
                       / mp.cosh(mp.pi * x), mp.linspace(-X, X, 2 * X + 1))
