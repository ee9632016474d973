"""Property tests of config validation: every value is judged by the
constructor that owns it, parse_config either rejects a text with a
ConfigError citing a line or returns a config whose domain objects build,
and a config it accepts runs to a documented exit status."""

import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from snse.cli import _SCHEMA, ConfigError, MODES, main, parse_config
from snse.harmonics import ParameterError, gauss_legendre_grid
from snse.noise import NoiseSpec
from snse.operators import OperatorContext
from snse.solver import SolverConfig

# (valid, invalid) values of each key: the invalid ones sit just across a
# bound.  lmax stays small so every accepted config builds its objects
# quickly.  Valid values can still combine into a rejected config (t_end
# not a multiple of dt, a mode above lmax, a grid too small for lmax).
VALUES = {
    "mode": (MODES, ("bogus",)),
    "snapshot_every": ((0, 2), (-1,)),
    "n_paths": ((1, 3), (0,)),
    "workers": ((1, 2), (0,)),
    "lmax": ((1, 4, 8), (0, -1)),
    "nu": ((1e-3, 0.5, 2.0), (0.0, -1.0)),
    "omega": ((-2.0, 0.0, 3.0), ()),
    "alpha": ((0.0, 0.1), (-0.5,)),
    "spectrum": (("paper", "ricci_shifted"), ("other",)),
    "n_lat": ((6, 9, 13), (0,)),
    "n_lon": ((12, 17, 25), (0,)),
    "dealias": (("true", "false"), ()),
    "beta": ((0.5, 1.5, 2.0), (0.0, 2.5)),
    "sigma": (("zero", "power:gamma=2.0", "power:gamma=0.5",
               "band:l<=3,value=0.1", "const:0"), ("nope:1", "power")),
    "delta": ((0.0, 0.5), (-0.5,)),
    "n_substeps": ((1, 2), (0,)),
    "seed": ((0, 5), (-1,)),
    "dt": ((0.05, 0.1), (0.0, -0.1)),
    "t_end": ((0.1, 0.2, 0.30000000000000004, 0.25),
              (0.0, 0.09999999999)),
    "scheme": (("imex_euler", "imex_heun", "picard"), ("rk4",)),
    "picard_tol": ((1e-10,), (0.0,)),
    "picard_max_iter": ((1, 3), (0,)),
    "v0": (("zero", "mode:l=1", "mode:l=3,m=3,amp=0.5",
            "random:decay=2.0,norm=1.0,seed=3"),
           ("mode:l=9", "mode:l=2,m=3", "random:seed=-1", "random:norm=inf",
            "bogus")),
    "f": (("zero", "mode:l=2,m=1,amp=0.1"), ("mode:l=0", "mode:m=1")),
    "p": ((0.5, 1.0, 1.8), (0.0, -1.0)),
    "t": (("0.1,1", "0.5"), ("-1,1", "0", "a,b", "nan", "inf")),
}
KEYS = [(section, key) for section, keys in _SCHEMA.items()
        for key in keys if key != "output_dir"]


# the valid values of a run small enough to execute in a property test:
# lmax <= 4, at most 3 paths (every mode's sample count), times <= 0.5 and
# at most 6 steps of dt
RUN_VALUES = {key: (valid, ()) for key, (valid, _) in VALUES.items()}
RUN_VALUES.update(lmax=((1, 4), ()), t=(("0.5", "0.25,0.5"), ()))
RUN_KEYS = [("run", "mode"), ("run", "n_paths"), ("model", "lmax"),
            ("time", "dt"), ("time", "t_end"), ("verify", "t")]


@st.composite
def config_texts(draw, values=VALUES, required=()):
    chosen = draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=12))
    if draw(st.integers(0, 9)):
        chosen.append(("model", "lmax"))
    chosen += required
    lines = []
    for section in _SCHEMA:
        keys = [k for s, k in KEYS if s == section and (s, k) in chosen]
        if keys:
            lines.append(f"[{section}]")
        for key in keys:
            valid, invalid = values[key]
            pool = invalid if invalid and draw(st.integers(0, 7)) == 0 else valid
            lines.append(f"{key} = {draw(st.sampled_from(pool))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_texts(), mode=st.sampled_from(MODES + (None,)))
def test_config_text_is_rejected_or_builds(tmp_path, text, mode):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    try:
        cfg = parse_config(str(path), mode=mode)
    except ConfigError as err:
        assert str(err).startswith(str(path))
        return
    # bench/ reads these names of the returned config
    assert cfg.operator_context() is cfg.ctx
    assert cfg.lmax == cfg.ctx.lmax
    if cfg.mode in ("simulate", "verify-energy"):
        assert isinstance(cfg.solver, SolverConfig)
    else:
        assert cfg.solver is None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_texts(RUN_VALUES, RUN_KEYS))
@example(text="[run]\nmode = verify-noise\nn_paths = 3\n[model]\nlmax = 4\n"
              "[noise]\nsigma = power:gamma=2.0\n[verify]\nt = 0.5\n")
@example(text="[run]\nmode = verify-energy\nn_paths = 1\n[model]\nlmax = 1\n"
              "spectrum = ricci_shifted\n[time]\ndt = 0.05\nt_end = 0.1\n")
def test_accepted_config_runs_to_an_exit_status(tmp_path, capfd, text):
    # exit 0 (pass), 1 (blow-up or a failed check) or 2 (config error), with
    # nothing on stderr but the config error, in this process or a worker
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    try:
        mode = parse_config(str(path)).mode
    except ConfigError:
        return
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main([mode, "--config", str(path),
                       "--output", str(tmp_path / "out")])
    err = capfd.readouterr().err
    assert status in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert all(line.startswith("config error: ")
               for line in err.splitlines()), err


def test_constructors_name_the_offending_parameter():
    cases = [
        (lambda: OperatorContext(lmax=0), "lmax"),
        (lambda: OperatorContext(lmax=4, nu=0.0), "nu"),
        (lambda: OperatorContext(lmax=4, spectrum="other"), "spectrum"),
        (lambda: OperatorContext(lmax=8, grid=gauss_legendre_grid(6, 12),
                                 dealias=False), "n_lon"),
        (lambda: OperatorContext(lmax=8, grid=gauss_legendre_grid(6, 17),
                                 dealias=False), "n_lat"),
        (lambda: OperatorContext(4, alpha=-5.0), "alpha"),
        (lambda: OperatorContext(4, alpha=float("nan")), "alpha"),
        (lambda: gauss_legendre_grid(4, 0), "n_lon"),
        (lambda: NoiseSpec(beta=2.5), "beta"),
        (lambda: NoiseSpec(beta=1.5, sigma_rule="nope:1"), "sigma_rule"),
        (lambda: NoiseSpec(beta=1.5, delta=-1.0), "delta"),
        (lambda: NoiseSpec(beta=1.5, n_substeps=0), "n_substeps"),
        (lambda: SolverConfig(dt=0.1, t_end=0.09999999999), "t_end"),
        (lambda: SolverConfig(dt=0.1, t_end=1.0, scheme="rk4"), "scheme"),
    ]
    for build, param in cases:
        with pytest.raises(ParameterError) as err:
            build()
        assert err.value.param == param
