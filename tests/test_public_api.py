"""The public API surface: everything README advertises must import."""

import importlib

import numpy as np
import pytest

import repro


class TestTopLevelExports:
    @pytest.mark.parametrize("name", repro.__all__)
    def test_all_exports_resolve(self, name):
        assert getattr(repro, name) is not None

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_key_classes_present(self):
        for name in ("MFBOptimizer", "WEIBO", "GASPAD", "DEOptimizer",
                     "NARGP", "AR1", "GPR", "DesignSpace", "Problem"):
            assert name in repro.__all__


class TestEntryPoints:
    def test_documented_entry_points_exported(self):
        for name in ("open_session", "connect", "get_problem",
                     "get_strategy", "list_problems", "list_strategies",
                     "RunVault", "SessionServer", "RemoteSession"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_open_session_from_names(self):
        with repro.open_session(
            "forrester", "random_search", budget=5, n_init=3, seed=0
        ) as session:
            result = session.run()
        assert np.isfinite(result.best_objective)
        assert len(session.history) == 5

    def test_open_session_with_vault(self, tmp_path):
        with repro.open_session(
            "forrester", "random_search", vault=tmp_path,
            budget=4, n_init=3, seed=0,
        ) as session:
            session.run()
        info = repro.RunVault(tmp_path).info(session.run_id)
        assert info.status == "done" and info.n_evaluations == 4

    def test_open_session_accepts_instances(self):
        problem = repro.get_problem("forrester")
        strategy = repro.get_strategy("random_search")(
            problem, budget=4, n_init=3
        )
        with repro.open_session(problem, strategy) as session:
            assert session.strategy is strategy

    def test_problem_registry(self):
        names = repro.list_problems()
        for expected in ("forrester", "power-amplifier", "charge-pump",
                         "two-stage-opamp", "zdt1-mf"):
            assert expected in names
        # normalization + aliases resolve to the canonical problems
        assert repro.get_problem("power_amplifier").name == "power-amplifier"
        assert repro.get_problem("pa").name == "power-amplifier"
        with pytest.raises(ValueError, match="unknown problem"):
            repro.get_problem("no-such-problem")

    def test_strategy_registry(self):
        assert set(repro.list_strategies()) >= {
            "mfbo", "weibo", "gaspad", "de", "random_search", "momfbo"
        }
        assert repro.get_strategy("mfbo") is repro.MFBOptimizer


class TestLazyImport:
    def test_import_repro_is_lazy(self):
        """``import repro`` must not drag in the heavy substrate."""
        import subprocess
        import sys

        code = (
            "import sys, repro; "
            "heavy = [m for m in ('repro.gp', 'repro.spice', 'repro.core')"
            " if m in sys.modules]; "
            "print(','.join(heavy) or 'none')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert out == "none", f"eagerly imported: {out}"

    def test_optimizers_never_import_scipy_stats(self):
        """Building and running both multi-fidelity optimizers must not
        import ``scipy.stats``: nothing in the library needs it, and the
        import alone costs start-up time and resident memory."""
        import subprocess
        import sys

        code = """
import sys
import repro
from repro.problems import ForresterProblem, ZDT1Problem

fast = dict(msp_starts=10, msp_polish=1, n_restarts=1, n_mc_samples=4,
            gp_max_opt_iter=10, seed=0)
repro.MFBOptimizer(ForresterProblem(), budget=3.0, n_init_low=4,
                   n_init_high=2, **fast).run()
repro.MOMFBOptimizer(ZDT1Problem(), budget=3.0, n_init_low=4,
                     n_init_high=2, ehvi_mc_samples=4, **fast).run()
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert out == "[]", f"scipy.stats modules imported: {out[:200]}"

    def test_submodules_reachable_as_attributes(self):
        assert repro.service.RunVault is repro.RunVault
        assert repro.registry.get_problem is repro.get_problem

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_thing

    def test_dir_covers_exports_and_submodules(self):
        names = dir(repro)
        assert "MFBOptimizer" in names
        assert "service" in names and "open_session" in names


class TestSubpackageImports:
    @pytest.mark.parametrize("module_name", sorted(repro._SUBMODULES))
    def test_all_exports_resolve(self, module_name):
        """Every name a subpackage lists in ``__all__`` exists, so a class
        removed from a module cannot linger in its package's exports."""
        module = importlib.import_module(f"repro.{module_name}")
        missing = [
            name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
        assert not missing, f"repro.{module_name}.__all__ lists {missing}"

    def test_spice_package(self):
        from repro.spice import (
            ACSolution,
            Circuit,
            simulate_transient,
            solve_ac,
            solve_dc,
        )

        assert Circuit is not None
        assert solve_ac is not None and ACSolution is not None
        assert solve_dc is not None and simulate_transient is not None

    def test_circuits_package(self):
        from repro.circuits import (
            ChargePumpProblem,
            OpAmpProblem,
            PowerAmplifierProblem,
        )

        assert ChargePumpProblem().dim == 36
        assert PowerAmplifierProblem().dim == 5
        assert OpAmpProblem().dim == 5

    def test_experiments_package(self):
        from repro.experiments import current_scale

        assert current_scale().name in ("smoke", "full")


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        """The exact code from README.md's quickstart (tiny budget)."""
        from repro import MFBOptimizer
        from repro.problems import ForresterProblem

        result = MFBOptimizer(
            ForresterProblem(),
            budget=6.0,
            n_init_low=6,
            n_init_high=2,
            seed=0,
            msp_starts=20,
            msp_polish=0,
            n_restarts=1,
        ).run()
        assert np.isfinite(result.best_objective)
        assert result.equivalent_cost <= 7.0 + 1e-9
