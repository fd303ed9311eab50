"""Independent oracles used by the unit and acceptance tests.

Everything here is deliberately dumb and direct: densities are obtained
by evaluating the package's own log_posterior on a fine grid and
normalizing numerically, so the sampler is checked against the density
definition rather than against itself.
"""
import numpy as np

from racemix.model import log_posterior


def grid_cdf(grid, log_density, left_bounded=False):
    """Normalized CDF on an increasing grid from unnormalized log density.

    left_bounded means the support ends at grid[0] (e.g. positives), so a
    nonvanishing density there is fine.
    """
    w = np.exp(log_density - np.max(log_density))
    steps = np.diff(grid) * 0.5 * (w[1:] + w[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    total = cdf[-1]
    assert total > 0.0
    # the grid must actually cover the mass
    assert left_bounded or w[0] < 1e-8 * w.max(), "left tail truncated"
    assert w[-1] < 1e-8 * w.max(), "right tail truncated"
    return cdf / total


def ks_to_grid(samples, grid, cdf) -> float:
    """Kolmogorov-Smirnov distance of samples against a gridded CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.interp(x, grid, cdf)
    hi = np.abs(f - np.arange(1, n + 1) / n).max()
    lo = np.abs(f - np.arange(0, n) / n).max()
    return float(max(hi, lo))


def coordinate_log_posterior(state, design, priors, setter, values):
    """log_posterior along one coordinate, all other parameters fixed."""
    out = np.empty(len(values))
    work = state.copy()
    for i, v in enumerate(values):
        setter(work, v)
        out[i] = log_posterior(work, design, priors)
    return out


def _resid_without(state, design, zero_fn):
    """Residuals with one coordinate's contribution removed."""
    from racemix.model import linear_predictor_all

    work = state.copy()
    zero_fn(work)
    return design.y - linear_predictor_all(work, design)


def conditional_ks(name, design, state, priors, n_draws, seed) -> float:
    """KS distance between repeated conditional draws and the grid oracle.

    Draws n_draws times from the named update with the conditioning state
    held fixed, then compares the empirical CDF against the density from
    grid-normalizing exp(log_posterior) along that single coordinate.
    """
    from scipy import stats as sps

    from racemix.sampler import (
        SLICE_UNIFORMS,
        gibbs_hypermean,
        gibbs_precision,
        gibbs_random_effect,
        gibbs_scalar_normal,
        precision_shape,
        slice_update_phi,
    )

    if name == "location_block":
        worst_ks, cov_excess = location_block_check(design, state, priors, n_draws, seed)
        assert cov_excess < 1.0, f"whitened covariance off I by {cov_excess:.2f} x 5/sqrt(N)"
        return worst_ks

    rng = np.random.default_rng(seed)
    tau = state.tau_obs

    def scalar_case(attr, prior_mean, prior_var, xs):
        resid = _resid_without(state, design, lambda s: setattr(s, attr, 0.0))
        draws = np.array([gibbs_scalar_normal(prior_mean, prior_var, xs, resid,
                                              tau, rng)
                          for _ in range(n_draws)])
        # conjugate mean/sd used only to place the grid, not as the oracle
        p_star = tau * float(xs @ xs) + 1.0 / prior_var
        m_star = (tau * float(xs @ resid) + prior_mean / prior_var) / p_star
        sd = 1.0 / np.sqrt(p_star)
        grid = np.linspace(m_star - 10 * sd, m_star + 10 * sd, 2001)
        setter = lambda s, v: setattr(s, attr, v)
        return draws, grid, setter, False

    def effect_case(attr, idx, level, tau_group):
        def zero(s):
            getattr(s, attr)[:] = 0.0
        resid = _resid_without(state, design, zero)
        size = getattr(state, attr).size
        sums = np.bincount(idx, weights=resid, minlength=size)
        counts = np.bincount(idx, minlength=size)
        draws = np.array([gibbs_random_effect(sums, counts, tau, tau_group,
                                              rng.standard_normal(size))[level]
                          for _ in range(n_draws)])
        prec = tau * counts[level] + tau_group
        mean = tau * sums[level] / prec
        sd = 1.0 / np.sqrt(prec)
        grid = np.linspace(mean - 10 * sd, mean + 10 * sd, 2001)
        setter = lambda s, v: getattr(s, attr).__setitem__(level, v)
        return draws, grid, setter, False

    def precision_ks(attr, shape, rate, sum_squares, n_free):
        # integrate in u = log(tau): the density can diverge at tau = 0 for
        # very diffuse updates, which a linear grid cannot resolve
        variates = rng.standard_gamma(precision_shape(shape, n_free), n_draws)
        draws = np.array([gibbs_precision(rate, sum_squares, g) for g in variates.tolist()])
        a_post = shape + 0.5 * n_free
        b_post = rate + 0.5 * sum_squares
        lo = max(sps.gamma.ppf(1e-9, a_post, scale=1.0 / b_post), 1e-290)
        hi = sps.gamma.ppf(1.0 - 1e-12, a_post, scale=1.0 / b_post)
        u_grid = np.linspace(np.log(lo) - 5.0, np.log(hi) + 1.0, 6001)
        setter = lambda s, v: setattr(s, attr, v)
        logd = (coordinate_log_posterior(state, design, priors, setter,
                                         np.exp(u_grid))
                + u_grid)  # Jacobian of the substitution
        cdf = grid_cdf(u_grid, logd)
        return ks_to_grid(np.log(draws), u_grid, cdf)

    if name in ("intercept", "gamma_dist", "lambda_wind", "rho_cur", "rho_prev"):
        r = design.race_idx
        xs = {"intercept": np.ones(design.n_obs),
              "gamma_dist": design.race_x_dist[r],
              "lambda_wind": design.race_x_wind[r],
              "rho_cur": design.race_rain_cur[r],
              "rho_prev": design.race_rain_prev[r]}[name]
        prior_mean, prior_var = {
            "intercept": (priors.m_intercept, priors.v_intercept),
            "gamma_dist": (priors.m_gamma_dist, priors.v_gamma_dist),
            "lambda_wind": (priors.m_lambda_wind, priors.v_lambda_wind),
            "rho_cur": (state.m_rho, priors.v_rho_cur),
            "rho_prev": (state.phi * state.m_rho, priors.v_rho_prev)}[name]
        draws, grid, setter, bounded = scalar_case(name, prior_mean, prior_var, xs)
    elif name == "athlete_level":
        draws, grid, setter, bounded = effect_case(
            "athlete_effects", design.athlete_idx, 1, state.tau_athlete)
    elif name == "course_level":
        draws, grid, setter, bounded = effect_case(
            "course_effects", design.race_course[design.race_idx], 1, state.tau_course)
    elif name == "season_level":
        draws, grid, setter, bounded = effect_case(
            "season_effects", design.race_season[design.race_idx], 1, state.tau_season)
    elif name in ("tau_athlete", "tau_course", "tau_season"):
        attr = {"tau_athlete": "athlete_effects", "tau_course": "course_effects",
                "tau_season": "season_effects"}[name]
        vec = getattr(state, attr)
        shape, rate = {"tau_athlete": (priors.a_tau_athlete, priors.b_tau_athlete),
                       "tau_course": (priors.a_tau_course, priors.b_tau_course),
                       "tau_season": (priors.a_tau_season, priors.b_tau_season)}[name]
        return precision_ks(name, shape, rate,
                            float(vec[1:] @ vec[1:]), vec.size - 1)
    elif name == "tau_obs":
        from racemix.model import linear_predictor_all

        resid = design.y - linear_predictor_all(state, design)
        return precision_ks("tau_obs", priors.a_tau_obs, priors.b_tau_obs,
                            float(resid @ resid), design.n_obs)
    elif name == "m_rho":
        draws = np.array([gibbs_hypermean(state.rho_cur, state.rho_prev, state.phi,
                                          priors.v_rho_cur, priors.v_rho_prev,
                                          priors.v_m_rho, z)
                          for z in rng.standard_normal(n_draws).tolist()])
        p_star = (1.0 / priors.v_m_rho + 1.0 / priors.v_rho_cur
                  + state.phi ** 2 / priors.v_rho_prev)
        m_star = (state.rho_cur / priors.v_rho_cur
                  + state.phi * state.rho_prev / priors.v_rho_prev) / p_star
        sd = 1.0 / np.sqrt(p_star)
        grid = np.linspace(m_star - 10 * sd, m_star + 10 * sd, 2001)
        setter = lambda s, v: setattr(s, "m_rho", v)
        bounded = False
    elif name in ("phi", "phi_overflow"):
        # the sweep's budget of uniforms, or just one, so that every
        # shrinkage proposal comes from the generator
        n_uniforms = SLICE_UNIFORMS if name == "phi" else 1
        draws = np.empty(n_draws)
        phi = state.phi
        for i in range(n_draws):
            phi = slice_update_phi(phi, state.rho_prev, state.m_rho,
                                   priors.v_rho_prev, priors.a_phi, priors.b_phi,
                                   rng.standard_exponential(), rng.random(n_uniforms), rng)
            draws[i] = phi
        # upper bound: far enough out that the gamma tail is negligible
        hi = (40.0 + priors.a_phi * 5.0) / priors.b_phi
        grid = np.linspace(1e-9, hi, 8001)
        setter = lambda s, v: setattr(s, "phi", v)
        bounded = True
    else:
        raise ValueError(f"unknown conditional {name!r}")

    logd = coordinate_log_posterior(state, design, priors, setter, grid)
    cdf = grid_cdf(grid, logd, left_bounded=bounded)
    return ks_to_grid(draws, grid, cdf)


LOCATION_SCALARS = ("intercept", "gamma_dist", "lambda_wind", "rho_cur", "rho_prev")
LOCATION_BLOCKS = ("athlete_effects[", "course_effects[", "season_effects[")


def _location_entries(state, design, priors):
    """analytic_gradient's (label, getter, setter, grad) for the location coordinates."""
    return [entry for entry in analytic_gradient(state, design, priors)
            if entry[0] in LOCATION_SCALARS or entry[0].startswith(LOCATION_BLOCKS)]


def location_block_check(design, state, priors, n_draws, seed):
    """The joint location draw against its exact Gaussian conditional.

    The log posterior is quadratic in the location coordinates (intercept,
    gamma_dist, lambda_wind, both rainfall coefficients, every free effect
    level), so its gradient (analytic_gradient) and its Hessian (central
    differences of that gradient, exact for any step) give the conditional
    precision P and mean x + P^-1 g.  n_draws joint draws with every other
    parameter frozen are whitened with the Cholesky factor of P.

    Returns the worst KS distance of a whitened coordinate against N(0, 1),
    and the worst entry of |whitened covariance - I| in units of 5/sqrt(N).
    """
    from scipy import stats as sps

    from racemix.model import ModelConfig
    from racemix.sampler import LocationBlock

    entries = _location_entries(state, design, priors)
    x0 = np.array([get(state) for _, get, _, _ in entries])
    grad = np.array([g for *_, g in entries])
    step = 1.0  # the gradient is affine: the difference quotient is exact
    hessian = np.empty((x0.size, x0.size))
    for j, (_, _, set_j, _) in enumerate(entries):
        sides = []
        for sign in (1.0, -1.0):
            work = state.copy()
            set_j(work, x0[j] + sign * step)
            sides.append(np.array([g for *_, g in _location_entries(work, design, priors)]))
        hessian[:, j] = (sides[0] - sides[1]) / (2.0 * step)
    precision = -0.5 * (hessian + hessian.T)
    mean = x0 + np.linalg.solve(precision, grad)

    config = ModelConfig(include_windspeed=state.lambda_wind is not None, priors=priors)
    block = LocationBlock(design, config)
    rng = np.random.default_rng(seed)
    row = draws_row(state)
    # each entry's place in the row: unpack a row holding 0, 1, 2, ...
    where = state_from_row(np.arange(row.size, dtype=float), state)
    positions = [int(get(where)) for _, get, _, _ in entries]
    p, la = block.unit.size, state.athlete_effects.size
    draws = np.empty((n_draws, x0.size))
    for i in range(n_draws):
        z = rng.standard_normal(p + la)
        block.draw(row, z[:p], z[p:], state.tau_obs, state.tau_athlete, state.tau_course,
                   state.tau_season, state.m_rho, state.phi)
        draws[i] = row[positions]
    white = (draws - mean) @ np.linalg.cholesky(precision)
    worst_ks = max(sps.kstest(white[:, j], "norm").statistic for j in range(x0.size))
    cov = white.T @ white / n_draws
    cov_excess = np.abs(cov - np.eye(x0.size)).max() / (5.0 / np.sqrt(n_draws))
    return float(worst_ks), float(cov_excess)


def _row_scalars(state):
    from racemix.sampler import SCALAR_COLUMNS

    return [name for name in SCALAR_COLUMNS
            if name != "lambda_wind" or state.lambda_wind is not None]


def draws_row(state) -> np.ndarray:
    """`state` as a draws row, the layout written out here for the tests.

    The scalars in SCALAR_COLUMNS order (lambda_wind only when fitted),
    then the athlete, course and season effects in level order.
    """
    return np.concatenate([[getattr(state, name) for name in _row_scalars(state)],
                           state.athlete_effects, state.course_effects, state.season_effects])


def state_from_row(row, like):
    """The ParameterState a draws row holds; block sizes are taken from `like`."""
    state = like.copy()
    names = _row_scalars(like)
    for name, value in zip(names, row):
        setattr(state, name, float(value))
    start = len(names)
    for attr in ("athlete_effects", "course_effects", "season_effects"):
        stop = start + getattr(like, attr).size
        setattr(state, attr, np.array(row[start:stop], dtype=float))
        start = stop
    assert start == len(row)
    return state


def chain_state(chain, row):
    """The ParameterState held by `row`, laid out as `chain`'s draws.

    `row` is one stored draw (`chain.draws[i]`) or any row in that layout,
    such as the column means.  Scalars are matched to the chain's column
    names; the effect blocks follow in EFFECT_BLOCKS order, sized by the
    chain metadata's levels.
    """
    from racemix.model import ParameterState
    from racemix.sampler import EFFECT_BLOCKS, SCALAR_COLUMNS

    names = [name for name in chain.columns if name in SCALAR_COLUMNS]
    fields = {name: float(value) for name, value in zip(names, row)}
    start = len(names)
    for block in EFFECT_BLOCKS:
        stop = start + len(getattr(chain.meta, f"{block}s"))
        fields[f"{block}_effects"] = np.array(row[start:stop], dtype=float)
        start = stop
    return ParameterState(**fields)


def ar1_chain(n, rho, seed) -> np.ndarray:
    """Stationary unit-variance AR(1) series, an ESS oracle."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = z[0]
    scale = np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + scale * z[t]
    return x


def analytic_gradient(state, design, priors) -> list:
    """Hand-derived partials of log_posterior per free coordinate.

    Returns (label, getter, setter, value) tuples so a finite-difference
    check can perturb exactly the coordinate it differentiates.
    """
    from racemix.model import linear_predictor_all

    r = design.y - linear_predictor_all(state, design)
    race = design.race_idx
    tau = state.tau_obs
    n = design.n_obs
    entries = []

    def scalar(label, attr, grad):
        entries.append((label,
                        lambda s, a=attr: getattr(s, a),
                        lambda s, v, a=attr: setattr(s, a, v),
                        grad))

    scalar("intercept", "intercept",
           tau * r.sum() - (state.intercept - priors.m_intercept) / priors.v_intercept)
    scalar("gamma_dist", "gamma_dist",
           tau * float(r @ design.race_x_dist[race])
           - (state.gamma_dist - priors.m_gamma_dist) / priors.v_gamma_dist)
    if state.lambda_wind is not None:
        scalar("lambda_wind", "lambda_wind",
               tau * float(r @ design.race_x_wind[race])
               - (state.lambda_wind - priors.m_lambda_wind) / priors.v_lambda_wind)
    scalar("rho_cur", "rho_cur",
           tau * float(r @ design.race_rain_cur[race])
           - (state.rho_cur - state.m_rho) / priors.v_rho_cur)
    scalar("rho_prev", "rho_prev",
           tau * float(r @ design.race_rain_prev[race])
           - (state.rho_prev - state.phi * state.m_rho) / priors.v_rho_prev)
    scalar("m_rho", "m_rho",
           (state.rho_cur - state.m_rho) / priors.v_rho_cur
           + state.phi * (state.rho_prev - state.phi * state.m_rho) / priors.v_rho_prev
           - state.m_rho / priors.v_m_rho)
    scalar("phi", "phi",
           (priors.a_phi - 1.0) / state.phi - priors.b_phi
           + state.m_rho * (state.rho_prev - state.phi * state.m_rho) / priors.v_rho_prev)

    for attr, idx_arr, tau_g, a_g, b_g in (
            ("athlete_effects", design.athlete_idx, state.tau_athlete,
             priors.a_tau_athlete, priors.b_tau_athlete),
            ("course_effects", design.race_course[race], state.tau_course,
             priors.a_tau_course, priors.b_tau_course),
            ("season_effects", design.race_season[race], state.tau_season,
             priors.a_tau_season, priors.b_tau_season)):
        vec = getattr(state, attr)
        for level in range(1, vec.size):
            sel = idx_arr == level
            grad = tau * float(r[sel].sum()) - tau_g * vec[level]
            entries.append((f"{attr}[{level}]",
                            lambda s, a=attr, l=level: getattr(s, a)[l],
                            lambda s, v, a=attr, l=level:
                                getattr(s, a).__setitem__(l, v),
                            grad))
        ss = float(vec[1:] @ vec[1:])
        k = vec.size - 1
        tau_attr = {"athlete_effects": "tau_athlete", "course_effects": "tau_course",
                    "season_effects": "tau_season"}[attr]
        tg = getattr(state, tau_attr)
        scalar(tau_attr, tau_attr,
               0.5 * k / tg - 0.5 * ss + (a_g - 1.0) / tg - b_g)

    scalar("tau_obs", "tau_obs",
           0.5 * n / tau - 0.5 * float(r @ r)
           + (priors.a_tau_obs - 1.0) / tau - priors.b_tau_obs)
    return entries


def acf_reference(x, max_lag) -> np.ndarray:
    """Biased autocorrelations of one non-constant 1-d chain, one FFT of its own."""
    n = x.size
    centred = x - x.mean()
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(centred, size)
    acov = np.fft.irfft(f * np.conj(f))[:max_lag + 1] / n
    return acov / acov[0]


def ess_reference(x) -> float:
    """ESS of one 1-d chain by a scalar loop over Geyer's lag pairs.

    N for a constant chain or fewer than 10 draws; otherwise the pairs of
    consecutive lags are added while their sum stays positive, and the
    result is clamped to (0, N].
    """
    n = x.size
    if n < 10 or np.all(x == x[0]):
        return float(n)
    acf = acf_reference(x, n - 1)
    gamma_sum = 0.0
    t = 0
    while 2 * t + 1 < n:
        pair = acf[2 * t] + acf[2 * t + 1]
        if pair <= 0.0:
            break
        gamma_sum += pair
        t += 1
    tau = 2.0 * gamma_sum - 1.0
    return float(n) if tau <= 0.0 else float(min(n / tau, n))


def split_rhat_reference(chains) -> float:
    """Split R-hat of equal-length 1-d chains, piece by piece."""
    half = len(chains[0]) // 2
    pieces = np.array([piece for c in chains for piece in (c[:half], c[half:2 * half])])
    w = float(np.mean(pieces.var(axis=1, ddof=1)))
    b = half * float(np.var(pieces.mean(axis=1), ddof=1))
    if w == 0.0:
        return 1.0 if b == 0.0 else float("inf")
    return float(np.sqrt(((half - 1) / half * w + b / half) / w))
