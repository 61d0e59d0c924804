"""Monte Carlo runner: sampling, determinism, report shape."""

from conftest import seeded
from ffdioph.experiments import (
    ExperimentConfig,
    run_extremal,
    sample_unit_ball,
)


def small_config(**overrides):
    base = dict(
        q=2, modulus=None, map_spec="veronese:2", theta="0",
        tau_max=8, precision=0, depth=30, samples=8, seed=99,
        format="json",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSampling:
    def test_exact_depth(self, F2):
        rng = seeded(60)
        pt = sample_unit_ball(F2, 2, 12, rng)
        for x in pt:
            assert x.exact
            assert x.deg_upper() <= -1

    def test_uniform_digits(self, F2):
        # frequency of the first digit is near one half
        rng = seeded(61)
        ones = 0
        trials = 2000
        for _ in range(trials):
            x = sample_unit_ball(F2, 1, 3, rng)[0]
            ones += x.coeff_at(-1)
        assert abs(ones - trials / 2) < 120


class TestConfig:
    def test_tau_grid(self):
        cfg = small_config(tau_max=20)
        assert cfg.tau_grid() == [10, 15, 20]

    def test_working_floor_default(self):
        cfg = small_config(tau_max=20)
        assert cfg.working_floor() == -(2 + 1) * 20 - 8

    def test_from_keys(self):
        cfg = ExperimentConfig.from_keys({
            "q": "2", "map": "veronese:3", "theta": "T^-1 + T^-5",
            "tau_max": "20", "depth": "60", "samples": "200",
            "seed": "42",
        })
        assert cfg.map_spec == "veronese:3"
        assert cfg.tau_grid() == [10, 15, 20]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "q=2\nmap=veronese:2\ntheta=0\ntau_max=8\n"
            "depth=30\nsamples=4\nseed=5\n"
        )
        cfg = ExperimentConfig.from_file(path)
        assert cfg.samples == 4 and cfg.seed == 5


class TestRun:
    def test_report_shape(self):
        rep = run_extremal(small_config())
        assert len(rep.rows) == 8
        taus = [qd["tau"] for qd in rep.quantiles]
        assert taus == [4, 6, 8]
        d = rep.as_json_dict()
        assert d["samples"] == 8

    def test_deterministic(self):
        import json

        r1 = run_extremal(small_config())
        r2 = run_extremal(small_config())
        assert json.dumps(r1.as_json_dict(), sort_keys=True) == \
            json.dumps(r2.as_json_dict(), sort_keys=True)

    def test_quantiles_recomputable(self):
        rep = run_extremal(small_config(samples=12))
        for qd in rep.quantiles:
            vals = sorted(
                e[2] for r in rep.rows if r["included"]
                for e in r["entries"] if e[0] == qd["tau"]
            )
            assert len(vals) == qd["count"]
            if vals:
                k = len(vals)
                expected = (vals[k // 2] if k % 2
                            else (vals[k // 2 - 1] + vals[k // 2]) / 2)
                assert qd["median"] == expected

    def test_inhomogeneous_runs(self):
        rep = run_extremal(small_config(theta="T^-1 + T^-5", samples=4))
        assert len(rep.rows) == 4

    def test_q3_run(self):
        rep = run_extremal(small_config(q=3, samples=4, theta="2*T^-1"))
        assert len(rep.rows) == 4
        for qd in rep.quantiles:
            if qd["median"] is not None:
                assert qd["median"] > 0

    def test_csv_columns(self):
        rep = run_extremal(small_config(samples=3, format="csv"))
        lines = rep.to_csv().splitlines()
        assert lines[0] == "sample,tau,L,ratio,exact,included"
        assert len(lines) == 1 + 3 * 3
