"""Closed-form variants the engine does not use, kept as test-side references."""


def l_scaled_zf_snr(beta, m, l, trace_sq, rho_t, sigma2):
    """The closed form with an extra factor of L in its denominator.

    Against the exact iid trace-inverse oracle it underestimates the SNR by a
    factor of about L; criterion 9 guards that the engine's form is not it.
    """
    return rho_t * beta * m**3 / (sigma2 * (m**2 + l * trace_sq) * l)
